//! The two open-loop serving workloads: `serve_zipf_rw` (reads beside
//! writes over a bounded, evicting store and a 1M-user Zipf-like
//! population) and `serve_hot_read` (predicts only, for 400 warmed users,
//! so engine overhead dominates).

use crate::openloop::{run_closed, run_phase, Op, PhaseResult, Scheduled};
use crate::precompute_loop::Event;
use crate::stats::Metric;
use crate::{probes, Check, EngineSnapshot, Output, RunConfig};
use pp_data::schema::{Context, DatasetKind, Tab, UserId};
use pp_rnn::{RnnModel, RnnModelConfig, TaskKind};
use pp_serving::{
    BatchServingEngine, EvictionPolicy, PredictRequest, ShardedStateStore, UpdateRequest,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub const WORKERS: usize = 2;
pub const SHARDS: usize = 16;
pub const MAX_BATCH: usize = 64;
/// Each ladder step offers 5% more load than the one before.
pub const LADDER_STEP: f64 = 1.05;
pub const LADDER_STEPS: usize = 40;
/// Traffic-time seconds between consecutive generated sessions.
const TICK_SECS: i64 = 13;
const BASE_TIMESTAMP: i64 = 1_564_617_600;

#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Log-uniform ranks (≈ Zipf(1)) over `population` returning users,
    /// plus a `driveby` share of one-shot users; each session predicts at
    /// its start and updates `dwell_ms` later.
    Zipf {
        population: u64,
        driveby: f64,
        dwell_ms: u64,
    },
    /// Predicts only, uniform over `users` warmed users.
    HotRead { users: u64 },
}

/// A serving workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub hidden: usize,
    pub traffic: Traffic,
    /// Store capacity in states (`None` = unbounded), frequency-weighted
    /// eviction when bounded.
    pub store_capacity: Option<usize>,
    /// Sessions of the untimed warm-up prefix.
    pub warm_sessions: usize,
    /// The two fixed offered rates, sessions/s, frozen from the parent
    /// commit: about 1/10 and 2/3 of its `max_rate_per_s`.
    pub lo_sps: f64,
    pub hi_sps: f64,
    /// Predict p99 limit for `max_rate_per_s`, µs.
    pub p99_limit_us: f64,
}

pub const ZIPF_RW: Spec = Spec {
    hidden: 128,
    traffic: Traffic::Zipf {
        population: 1_000_000,
        driveby: 0.15,
        dwell_ms: 10,
    },
    store_capacity: Some(100_000),
    warm_sessions: 300_000,
    lo_sps: 3_700.0,
    hi_sps: 25_000.0,
    p99_limit_us: 10_000.0,
};

pub const HOT_READ: Spec = Spec {
    hidden: 16,
    traffic: Traffic::HotRead { users: 400 },
    store_capacity: None,
    warm_sessions: 64_000,
    lo_sps: 43_000.0,
    hi_sps: 287_000.0,
    p99_limit_us: 10_000.0,
};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// One generated session.
struct Session {
    predict: PredictRequest,
    update: UpdateRequest,
}

/// A phase's schedule plus the generator's own first-visit accounting.
struct Schedule {
    ops: Vec<Scheduled>,
    /// Store misses the phase must see even with nothing evicted: reads of
    /// users with no state written yet.
    expected_misses: u64,
}

/// The seeded traffic generator. Its state carries from the warm-up
/// through every phase, so one seed gives one session sequence.
struct Generator {
    traffic: Traffic,
    rng: u64,
    next_driveby: u64,
    tick: i64,
    last_ts: HashMap<u64, i64>,
    /// Users whose state has been written (bit per user).
    known: Vec<u64>,
}

impl Schedule {
    /// The last `n` predicts of the schedule, latest first.
    fn last_predicts(&self, n: usize) -> Vec<PredictRequest> {
        self.ops
            .iter()
            .rev()
            .filter_map(|s| match s.op {
                Op::Predict(r) => Some(r),
                Op::Update(_) => None,
            })
            .take(n)
            .collect()
    }
}

impl Generator {
    fn new(traffic: Traffic, seed: u64) -> Self {
        let known_users = match traffic {
            Traffic::Zipf { population, .. } => population,
            Traffic::HotRead { users } => users,
        };
        Self {
            traffic,
            rng: seed ^ 0xA076_1D64_78BD_642F,
            next_driveby: known_users,
            tick: 0,
            last_ts: HashMap::new(),
            known: vec![0; (known_users as usize).div_ceil(64)],
        }
    }

    fn is_known(&self, user: u64) -> bool {
        let i = user as usize;
        self.known
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn mark_known(&mut self, user: u64) {
        let i = user as usize;
        if let Some(w) = self.known.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    fn session(&mut self, warm_index: Option<u64>) -> Session {
        let draw = splitmix64(&mut self.rng);
        let user = match (self.traffic, warm_index) {
            (Traffic::HotRead { users }, Some(k)) => k % users,
            (Traffic::HotRead { users }, None) => draw % users,
            (Traffic::Zipf { driveby, .. }, _)
                if ((draw >> 40) as f64) < driveby * (1u64 << 24) as f64 =>
            {
                self.next_driveby += 1;
                self.next_driveby - 1
            }
            (Traffic::Zipf { population, .. }, _) => {
                let x = unit_f64(&mut self.rng);
                (((population as f64 + 1.0).powf(x) - 1.0) as u64).min(population - 1)
            }
        };
        self.tick += 1;
        let timestamp = BASE_TIMESTAMP + self.tick * TICK_SECS;
        let elapsed = self
            .last_ts
            .insert(user, timestamp)
            .map_or(0, |last| timestamp - last);
        let context = Context::MobileTab {
            unread_count: (draw % 9) as u8,
            active_tab: Tab::ALL[((draw >> 8) % Tab::ALL.len() as u64) as usize],
        };
        Session {
            predict: PredictRequest {
                user_id: UserId(user),
                timestamp,
                context,
                elapsed_secs: elapsed,
            },
            update: UpdateRequest {
                user_id: UserId(user),
                timestamp,
                context,
                delta_t_secs: elapsed,
                accessed: (draw >> 16).is_multiple_of(3),
            },
        }
    }

    /// The untimed warm-up prefix, closed-loop: every session's predict and
    /// update.
    fn warm_up(&mut self, sessions: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(2 * sessions);
        for k in 0..sessions as u64 {
            let s = self.session(Some(k));
            self.mark_known(s.update.user_id.0);
            ops.push(Op::Predict(s.predict));
            ops.push(Op::Update(s.update));
        }
        ops
    }

    /// Poisson arrivals at `rate` sessions/s for `secs`.
    fn schedule(&mut self, rate: f64, secs: f64) -> Schedule {
        let dwell_ns = match self.traffic {
            Traffic::Zipf { dwell_ms, .. } => Some(dwell_ms * 1_000_000),
            Traffic::HotRead { .. } => None,
        };
        let mut ops = Vec::with_capacity((2.0 * rate * secs) as usize + 16);
        let mut first_due: HashMap<u64, u64> = HashMap::new();
        let mut expected_misses = 0;
        let mut t = 0.0f64;
        loop {
            t += -unit_f64(&mut self.rng).ln() / rate;
            if t >= secs {
                break;
            }
            let due_ns = (t * 1e9) as u64;
            let s = self.session(None);
            let user = s.predict.user_id.0;
            if !self.is_known(user) {
                match first_due.get(&user) {
                    None => {
                        first_due.insert(user, due_ns);
                        // Neither this predict nor the first update finds a
                        // state.
                        expected_misses += if dwell_ns.is_some() { 2 } else { 1 };
                    }
                    Some(&first) => {
                        // Still no state unless the first update was due
                        // before this predict.
                        if dwell_ns.is_none_or(|d| first + d > due_ns) {
                            expected_misses += 1;
                        }
                    }
                }
            }
            ops.push(Scheduled {
                due_ns,
                op: Op::Predict(s.predict),
            });
            if let Some(dwell) = dwell_ns {
                ops.push(Scheduled {
                    due_ns: due_ns + dwell,
                    op: Op::Update(s.update),
                });
            }
        }
        ops.sort_by_key(|s| s.due_ns);
        if dwell_ns.is_some() {
            for user in first_due.into_keys() {
                self.mark_known(user);
            }
        }
        Schedule {
            ops,
            expected_misses,
        }
    }
}

struct Setup {
    model: Arc<RnnModel>,
    store: Arc<ShardedStateStore>,
    engine: BatchServingEngine,
    warm_failed: u64,
    secs: f64,
}

fn model_config(hidden: usize) -> RnnModelConfig {
    RnnModelConfig {
        hidden_dim: hidden,
        mlp_width: hidden,
        ..RnnModelConfig::default()
    }
}

/// Builds the model, store and engine and replays the warm-up prefix.
fn set_up(spec: &Spec, seed: u64, warm: &[Op]) -> Setup {
    let t0 = Instant::now();
    let model = Arc::new(RnnModel::new(
        DatasetKind::MobileTab,
        TaskKind::PerSession,
        model_config(spec.hidden),
        seed,
    ));
    let store = Arc::new(match spec.store_capacity {
        Some(capacity) => ShardedStateStore::with_capacity_and_policy(
            SHARDS,
            capacity,
            EvictionPolicy::FrequencyWeighted,
        ),
        None => ShardedStateStore::new(SHARDS),
    });
    let engine = BatchServingEngine::start(model.clone(), store.clone(), WORKERS, MAX_BATCH);
    let warm_failed = run_closed(&engine, warm, 2 * 1024);
    Setup {
        model,
        store,
        engine,
        warm_failed,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Whether a ladder step met the p99 limit without failures or a growing
/// backlog, and the p99 it saw.
fn step_passes(spec: &Spec, r: &PhaseResult) -> (bool, f64) {
    let p99 = r.predict_us.tail(0.99).map_or(f64::INFINITY, |(v, _, _)| v);
    let ops_per_session = r.attempted as f64 / r.predicts().max(1) as f64;
    // Little's law: within the limit, about rate × limit requests are in
    // flight; allow twice that plus one full batch per worker.
    let backlog_bound =
        2.0 * r.rate * ops_per_session * spec.p99_limit_us * 1e-6 + (MAX_BATCH * WORKERS) as f64;
    let ok = r.failed == 0
        && r.bad_replies == 0
        && p99 <= spec.p99_limit_us
        && (r.outstanding_end as f64) <= backlog_bound;
    (ok, p99)
}

/// The highest rate meeting the limit: between the highest passing step
/// and the failing step above it, where the p99 (log-interpolated) crosses
/// the limit.
fn max_rate(spec: &Spec, steps: &[(f64, f64, bool)]) -> (f64, String) {
    let Some(k) = steps.iter().rposition(|s| s.2) else {
        let (rate, p99, _) = steps[0];
        return (
            rate * (spec.p99_limit_us / p99).min(1.0),
            format!("every step failed; scaled from {rate:.0}/s"),
        );
    };
    let (r0, p0, _) = steps[k];
    match steps.get(k + 1) {
        Some(&(r1, p1, _)) if p1.is_finite() && p1 > spec.p99_limit_us && p1 > p0 => {
            let f = ((spec.p99_limit_us / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0);
            (
                r0 + (r1 - r0) * f,
                format!(
                    "{} steps; crossing between {r0:.0}/s and {r1:.0}/s",
                    steps.len()
                ),
            )
        }
        Some(&(r1, _, _)) => (
            r0,
            format!("{} steps; next step {r1:.0}/s failed", steps.len()),
        ),
        None => (r0, format!("{} steps; ladder ended passing", steps.len())),
    }
}

/// Batched-vs-single spot checks on the workload's model and store, and
/// the engine's replies against single-row predictions, all at 1e-6.
fn spot_checks(setup: &Setup, requests: &[PredictRequest]) -> Vec<Check> {
    let model = &setup.model;
    let mut seen = std::collections::HashSet::new();
    let picked: Vec<(PredictRequest, Vec<f32>)> = requests
        .iter()
        .filter(|r| seen.insert(r.user_id.0))
        .filter_map(|r| setup.store.get_state(r.user_id).map(|s| (*r, s)))
        .take(MAX_BATCH)
        .collect();
    if picked.len() < 8 {
        return vec![Check::expect(
            "spot_check_sample",
            false,
            format!("only {} resident users to check", picked.len()),
        )];
    }
    let states: Vec<&[f32]> = picked.iter().map(|(_, s)| s.as_slice()).collect();
    let pin: Vec<Vec<f32>> = picked
        .iter()
        .map(|(r, _)| {
            model
                .featurizer()
                .predict_input(r.timestamp, &r.context, r.elapsed_secs)
        })
        .collect();
    let uin: Vec<Vec<f32>> = picked
        .iter()
        .map(|(r, _)| {
            model
                .featurizer()
                .update_input(r.timestamp, &r.context, r.elapsed_secs, true)
        })
        .collect();
    let single: Vec<f64> = states
        .iter()
        .zip(&pin)
        .map(|(s, x)| model.predict_proba(s, x))
        .collect();
    let batched = model.predict_proba_batch(&states, &pin);
    let predict_gap = single
        .iter()
        .zip(&batched)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let single_next: Vec<Vec<f32>> = states
        .iter()
        .zip(&uin)
        .map(|(s, x)| model.advance_state(s, x))
        .collect();
    let batched_next = model.advance_state_batch(&states, &uin);
    let update_gap = single_next
        .iter()
        .zip(&batched_next)
        .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| f64::from((x - y).abs())))
        .fold(0.0, f64::max);
    // The engine is idle now, so the stored states are the ones above.
    let batch_requests: Vec<PredictRequest> = picked.iter().map(|(r, _)| *r).collect();
    let deadline = Instant::now() + crate::openloop::REPLY_TIMEOUT;
    let mut engine_gap = 0.0f64;
    let mut engine_failed = 0;
    for (rx, want) in setup
        .engine
        .submit_many(&batch_requests)
        .into_iter()
        .zip(&single)
    {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(p) => engine_gap = engine_gap.max((p.probability - want).abs()),
            Err(_) => engine_failed += 1,
        }
    }
    let n = picked.len();
    vec![
        Check::expect(
            "batched_vs_single_predict",
            predict_gap <= 1e-6,
            format!("max |batched - single| = {predict_gap:.2e} over {n} rows"),
        ),
        Check::expect(
            "batched_vs_single_update",
            update_gap <= 1e-6,
            format!("max |batched - single| = {update_gap:.2e} over {n} states"),
        ),
        Check::expect(
            "engine_vs_single_predict",
            engine_failed == 0 && engine_gap <= 1e-6,
            format!(
                "max |engine - single| = {engine_gap:.2e} over {n} replies, {engine_failed} failed"
            ),
        ),
    ]
}

fn phase_secs(cfg: &RunConfig, share: f64, rate: f64) -> f64 {
    // At least 3000 requests, so a p99 has 30 samples beyond it.
    (cfg.seconds * share).max(3_000.0 / rate)
}

fn note_phase(out: &mut Output, label: &str, r: &PhaseResult) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    let (late50, late99) = crate::p50_p99(&r.late_us, 1.0);
    let (p50, p99) = crate::p50_p99(&r.predict_us, 1.0);
    out.info.push(
        Metric::new(&format!("phase.{label}.offered"), r.rate, "1/s")
            .with_n(r.predicts() as usize)
            .note(format!(
                "predict p50 {:.0} us p99 {:.0} us; late p50 {:.0} us p99 {:.0} us; outstanding max {} end {}; failed {}",
                p50.value, p99.value, late50.value, late99.value, r.outstanding_max, r.outstanding_end, r.failed
            )),
    );
}

pub fn run(spec: &Spec, cfg: &RunConfig) -> Output {
    let mut out = Output::default();
    let mut gen = Generator::new(spec.traffic, cfg.seed);
    let warm = gen.warm_up(spec.warm_sessions);
    out.info.push(
        Metric::new("peak_rss_mb.inputs", crate::sys::peak_rss_mb(), "MiB")
            .note("VmHWM once the warm-up inputs are generated, before set-up"),
    );

    let (setup, setup_secs) = crate::repeat_setup(cfg, || {
        let s = set_up(spec, cfg.seed, &warm);
        let secs = s.secs;
        (s, secs)
    });
    out.attempted += warm.len() as u64;
    out.failed += setup.warm_failed;
    let peak_rss_mb = crate::sys::peak_rss_mb();
    crate::discard_spans();

    if cfg.trace || cfg.reference {
        return traced(spec, cfg, &mut gen, &setup, out);
    }

    // Low load.
    let lo = gen.schedule(spec.lo_sps, phase_secs(cfg, 0.15, spec.lo_sps));
    let r_lo = run_phase(&setup.engine, &lo.ops, spec.lo_sps);
    note_phase(&mut out, "lo", &r_lo);

    // High load; its store traffic gives the cold-restart count.
    let hi = gen.schedule(spec.hi_sps, phase_secs(cfg, 0.3, spec.hi_sps));
    setup.store.reset_stats();
    let r_hi = run_phase(&setup.engine, &hi.ops, spec.hi_sps);
    let store_hi = setup.store.stats();
    note_phase(&mut out, "hi", &r_hi);

    // Rate ladder above `hi`, 5% apart, until two steps in a row fail.
    let ladder_start = Instant::now();
    let ladder_budget_s = cfg.seconds * 0.55;
    let step_s = cfg.seconds * 0.04;
    let mut steps = vec![{
        let (ok, p99) = step_passes(spec, &r_hi);
        (spec.hi_sps, p99, ok)
    }];
    let mut failing = usize::from(!steps[0].2);
    let mut rate = spec.hi_sps;
    let mut last_predicts = hi.last_predicts(4 * MAX_BATCH);
    let mut bad_replies = r_lo.bad_replies + r_hi.bad_replies;
    for k in 1..LADDER_STEPS {
        if failing >= 2 || ladder_start.elapsed().as_secs_f64() >= ladder_budget_s {
            break;
        }
        rate *= LADDER_STEP;
        let step = gen.schedule(rate, step_s.max(3_000.0 / rate));
        let r = run_phase(&setup.engine, &step.ops, rate);
        note_phase(&mut out, &format!("ladder{k}"), &r);
        let (ok, p99) = step_passes(spec, &r);
        steps.push((rate, p99, ok));
        failing = if ok { 0 } else { failing + 1 };
        bad_replies += r.bad_replies;
        last_predicts = step.last_predicts(4 * MAX_BATCH);
    }
    let (max_rate, ladder_note) = max_rate(spec, &steps);

    out.checks.push(Check::expect(
        "replies_valid",
        bad_replies == 0,
        format!("{bad_replies} replies with a wrong user or probability"),
    ));
    out.checks.extend(spot_checks(&setup, &last_predicts));

    out.e2e.push(crate::setup_metric(&setup_secs));
    out.e2e.push(crate::peak_rss_metric(peak_rss_mb));
    let (p50, p99) = crate::p50_p99(&r_lo.predict_us, 1.0);
    out.info.push(
        p50.named("predict_p50_us.lo")
            .note(format!("{:.0}/s offered", spec.lo_sps)),
    );
    out.info.push(
        p99.named("predict_p99_us.lo")
            .note(format!("{:.0}/s offered", spec.lo_sps)),
    );
    let (p50, p99) = crate::p50_p99(&r_hi.predict_us, 1.0);
    out.info.push(
        p50.named("predict_p50_us.hi")
            .note(format!("{:.0}/s offered", spec.hi_sps)),
    );
    out.info.push(
        p99.named("predict_p99_us.hi")
            .note(format!("{:.0}/s offered", spec.hi_sps)),
    );
    out.info
        .push(Metric::new("max_rate_sps", max_rate, "1/s").note(format!(
            "sessions/s with predict p99 <= {:.0} us and no growing backlog; {ladder_note}",
            spec.p99_limit_us
        )));
    let (cpu_lo, windows_lo) = r_lo.cpu_us_per_session();
    out.info.push(
        Metric::new("cpu_us_per_session.lo", cpu_lo, "us")
            .with_n(windows_lo)
            .note("process CPU minus generator threads, at lo: median over windows"),
    );
    let (cpu, windows) = r_hi.cpu_us_per_session();
    out.e2e.push(
        Metric::new("cpu_us_per_session", cpu, "us")
            .with_n(windows)
            .note("process CPU minus generator threads, at hi: median over windows"),
    );
    if matches!(spec.traffic, Traffic::Zipf { .. }) {
        let (_, p99) = crate::p50_p99(&r_hi.update_us, 1.0);
        out.info.push(
            p99.named("update_p99_us.hi")
                .note("state-freshness lag: update due to applied"),
        );
        let misses = store_hi.reads - store_hi.hits;
        let cold = misses.saturating_sub(hi.expected_misses);
        out.info.push(
            Metric::new(
                "cold_restarts_per_1k",
                cold as f64 * 1_000.0 / r_hi.predicts().max(1) as f64,
                "per_1k",
            )
            .with_n(r_hi.predicts() as usize)
            .note(format!(
                "at hi: {misses} store misses, {} expected first visits",
                hi.expected_misses
            )),
        );
    }
    out
}

/// The traced run (and its untraced `--reference` twin): the `hi` phase
/// only, then the per-layer probes.
fn traced(
    spec: &Spec,
    cfg: &RunConfig,
    gen: &mut Generator,
    setup: &Setup,
    mut out: Output,
) -> Output {
    let hi = gen.schedule(spec.hi_sps, phase_secs(cfg, 0.4, spec.hi_sps));
    setup.store.reset_stats();
    let before = EngineSnapshot::take(&setup.engine);
    let r = run_phase(&setup.engine, &hi.ops, spec.hi_sps);
    let after = EngineSnapshot::take(&setup.engine);
    let store_stats = setup.store.stats();
    note_phase(&mut out, "hi", &r);
    let (cpu_us, _) = r.cpu_us_per_session();
    if cfg.reference {
        out.reference = Some(cpu_us);
        return out;
    }
    out.checks.push(Check::expect(
        "replies_valid",
        r.bad_replies == 0,
        format!("{} replies with a wrong user or probability", r.bad_replies),
    ));
    out.checks
        .extend(spot_checks(setup, &hi.last_predicts(4 * MAX_BATCH)));

    out.layer
        .extend(crate::engine_metrics(&before, &after, MAX_BATCH, r.wall_s));
    out.layer.push(
        Metric::new(
            "engine.submit_ns",
            r.submit_ns as f64 / r.submitted.max(1) as f64,
            "ns",
        )
        .with_n(r.submitted as usize)
        .note("mean per request inside submit_many/submit_updates"),
    );
    out.layer.extend(crate::trace_stage_metrics());
    out.layer.push(
        Metric::new("store.hit_rate", store_stats.hit_rate(), "ratio")
            .with_n(store_stats.reads as usize),
    );
    out.layer.push(
        Metric::new(
            "store.evictions_per_1k",
            store_stats.evictions as f64 * 1_000.0 / r.predicts().max(1) as f64,
            "per_1k",
        )
        .note("evictions per 1k predicts at hi"),
    );
    let (_, late99) = crate::p50_p99(&r.late_us, 1.0);
    out.layer.push(late99.named("gen.late_us.p99"));
    out.layer.push(Metric::new(
        "gen.outstanding_max",
        r.outstanding_max as f64,
        "count",
    ));

    // Probe events: the phase's own sessions, labelled by their draw.
    let events: Vec<Event> = hi
        .ops
        .iter()
        .filter_map(|s| match s.op {
            Op::Update(u) => Some(Event {
                timestamp: u.timestamp,
                user: u.user_id,
                context: u.context,
                accessed: u.accessed,
            }),
            Op::Predict(p) if matches!(spec.traffic, Traffic::HotRead { .. }) => Some(Event {
                timestamp: p.timestamp,
                user: p.user_id,
                context: p.context,
                accessed: p.timestamp % 3 == 0,
            }),
            Op::Predict(_) => None,
        })
        .collect();
    let tail = &events[events.len().saturating_sub(2_048)..];
    out.layer.extend(probes::layer_probes(
        &setup.model,
        &setup.store,
        &tail[tail.len().saturating_sub(256)..],
        cfg.seed,
    ));
    out.layer
        .push(probes::train_probe(model_config(spec.hidden), cfg.seed));
    out.layer
        .extend(probes::wave_probe(&setup.model, &setup.engine, tail));
    out.layer.push(crate::trace_overhead(cfg, cpu_us));
    out
}
