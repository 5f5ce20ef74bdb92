//! Per-layer probes, run after a traced run's measured phase on that run's
//! own model, store and engine: the featurizer, the single-row and 64-row
//! kernels (with GFLOP/s from the model's FLOP counts), store reads and
//! writes, a short training run, and the wave driver.

use crate::precompute_loop::{self, Event, WaveDriver};
use crate::stats::{Metric, Samples};
use pp_data::schema::{DatasetKind, UserId};
use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
use pp_precompute::PrecomputeSystem;
use pp_rnn::{RnnModel, RnnModelConfig, RnnTrainer, TaskKind, TrainerConfig};
use pp_serving::{BatchServingEngine, ShardedStateStore};
use std::hint::black_box;
use std::time::Instant;

const CHUNKS: usize = 15;
const CHUNK_TARGET_NS: f64 = 2e6;

/// Median over [`CHUNKS`] timed chunks of the mean nanoseconds per call of
/// `f(i)`; the chunk length is sized to about 2 ms first. Returns the
/// median and the calls it covers.
fn ns_per_call(mut f: impl FnMut(usize)) -> (f64, usize) {
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for i in 0..calls {
            f(i);
        }
        let ns = t.elapsed().as_nanos() as f64;
        if ns >= CHUNK_TARGET_NS || calls >= 1 << 20 {
            break;
        }
        calls = (calls * 2).max((calls as f64 * CHUNK_TARGET_NS / ns.max(1.0)) as usize / 2);
    }
    let mut per_call = Samples::default();
    for _ in 0..CHUNKS {
        let t = Instant::now();
        for i in 0..calls {
            f(i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    (per_call.median().expect("chunks ran"), calls * CHUNKS)
}

fn timed(name: &str, unit: &'static str, (value, n): (f64, usize)) -> Metric {
    Metric::new(name, value, unit)
        .with_n(n)
        .note("median of 15 chunk means")
}

/// Featurizer, kernel and store probes over `events` (at least one).
pub fn layer_probes(
    model: &RnnModel,
    store: &ShardedStateStore,
    events: &[Event],
    seed: u64,
) -> Vec<Metric> {
    assert!(!events.is_empty(), "probes need events");
    let featurizer = model.featurizer();
    let mut out = Vec::new();
    let n = events.len();
    out.push(timed(
        "features.predict_input_ns",
        "ns",
        ns_per_call(|i| {
            let e = &events[i % n];
            black_box(featurizer.predict_input(e.timestamp, &e.context, 3_600));
        }),
    ));
    out.push(timed(
        "features.update_input_ns",
        "ns",
        ns_per_call(|i| {
            let e = &events[i % n];
            black_box(featurizer.update_input(e.timestamp, &e.context, 3_600, e.accessed));
        }),
    ));

    // Kernel inputs: 64 rows of real states and inputs.
    let rows: Vec<&Event> = events.iter().cycle().take(64).collect();
    let states: Vec<Vec<f32>> = rows
        .iter()
        .map(|e| {
            store
                .get_state(e.user)
                .unwrap_or_else(|| model.initial_state())
        })
        .collect();
    let pin: Vec<Vec<f32>> = rows
        .iter()
        .map(|e| featurizer.predict_input(e.timestamp, &e.context, 3_600))
        .collect();
    let uin: Vec<Vec<f32>> = rows
        .iter()
        .map(|e| featurizer.update_input(e.timestamp, &e.context, 3_600, e.accessed))
        .collect();
    out.push(timed(
        "rnn.predict_ns.b1",
        "ns",
        ns_per_call(|i| {
            black_box(model.predict_proba(&states[i % 64], &pin[i % 64]));
        }),
    ));
    out.push(timed(
        "rnn.update_ns.b1",
        "ns",
        ns_per_call(|i| {
            black_box(model.advance_state(&states[i % 64], &uin[i % 64]));
        }),
    ));
    let (predict_b64, calls) = ns_per_call(|_| {
        black_box(model.predict_proba_batch(&states, &pin));
    });
    let (update_b64, update_calls) = ns_per_call(|_| {
        black_box(model.advance_state_batch(&states, &uin));
    });
    out.push(timed(
        "rnn.predict_ns_per_row.b64",
        "ns",
        (predict_b64 / 64.0, calls * 64),
    ));
    out.push(timed(
        "rnn.update_ns_per_row.b64",
        "ns",
        (update_b64 / 64.0, update_calls * 64),
    ));
    out.push(
        Metric::new(
            "rnn.predict_gflops.b64",
            model.predict_flops() as f64 * 64.0 / predict_b64,
            "GFLOP/s",
        )
        .note(format!(
            "{} FLOP per row (predict_flops)",
            model.predict_flops()
        )),
    );
    out.push(
        Metric::new(
            "rnn.update_gflops.b64",
            model.update_flops() as f64 * 64.0 / update_b64,
            "GFLOP/s",
        )
        .note(format!(
            "{} FLOP per row (update_flops)",
            model.update_flops()
        )),
    );

    // Store: reads of resident users, then writes of new users (which
    // evict when the store is bounded and full).
    out.push(
        Metric::new("store.resident_bytes", store.stored_bytes() as f64, "bytes")
            .note(format!("{} states", store.len())),
    );
    out.push(timed(
        "store.get_ns",
        "ns",
        ns_per_call(|i| {
            black_box(store.get_state(events[i % n].user));
        }),
    ));
    let fresh = (seed | 1) << 40;
    let state = &states[0];
    out.push(timed(
        "store.put_ns",
        "ns",
        ns_per_call(|i| store.put_state(UserId(fresh + i as u64), state)),
    ));
    out
}

/// Training throughput at a serving workload's model size: one epoch over
/// a small seeded MobileTab split.
pub fn train_probe(config: RnnModelConfig, seed: u64) -> Metric {
    let dataset = MobileTabGenerator::new(MobileTabConfig {
        num_users: 8,
        num_days: 21,
        seed,
        ..MobileTabConfig::default()
    })
    .generate();
    let mut model = RnnModel::new(DatasetKind::MobileTab, TaskKind::PerSession, config, seed);
    let trainer = RnnTrainer::new(TrainerConfig {
        epochs: 1,
        parallel: false,
        ..TrainerConfig::warmup(seed)
    });
    let users: Vec<usize> = (0..dataset.users.len()).collect();
    let report = trainer.train(&mut model, &dataset, &users);
    Metric::new(
        "rnn.train_examples_per_s",
        report.total_predictions as f64 / report.wall_time_secs.max(1e-9),
        "1/s",
    )
    .with_n(report.total_predictions as usize)
    .note("1 epoch, 8 users x 21 days, serial")
}

/// The wave driver on a serving workload's engine: `events` replayed as
/// waves of one through a `PrecomputeSystem` at the loop's operating point.
pub fn wave_probe(model: &RnnModel, engine: &BatchServingEngine, events: &[Event]) -> Vec<Metric> {
    let rate = precompute_loop::events_per_sec(events);
    let system = PrecomputeSystem::new(precompute_loop::system_config(model, 0.5, rate));
    let mut driver = WaveDriver::new(engine, system);
    for (k, e) in events.iter().enumerate() {
        driver.run_wave(std::slice::from_ref(e), e.timestamp.max(k as i64));
    }
    driver.layer_metrics()
}
