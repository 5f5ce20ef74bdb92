//! The open-loop load generator: one thread sends a pre-generated schedule
//! on time and, between sends, harvests replies. Every request is timed
//! from when it was due, not from when it was sent, so a stalled sender
//! shows up as latency; how late the sender ran is reported on its own.

use crate::stats::Samples;
use crate::sys;
use pp_serving::{BatchServingEngine, PredictRequest, Prediction, UpdateRequest};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a reply may take, from its due time, before the request counts
/// as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Gaps up to this long are waited out by yielding, not sleeping.
const SPIN_NS: u64 = 1_000_000;

/// CPU-cost windows per phase (each at least [`MIN_WINDOW`] predicts).
const CPU_WINDOWS: u64 = 20;
const MIN_WINDOW: u64 = 1_000;

/// Prefix of the generator's thread names; their CPU is left out of the
/// system's CPU cost.
pub const GEN_THREAD_PREFIX: &str = "gen-";

/// One request of a schedule.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Predict(PredictRequest),
    Update(UpdateRequest),
}

/// A request and when it is due, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub due_ns: u64,
    pub op: Op,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Offered rate of the phase, sessions/s.
    pub rate: f64,
    /// Due time to reply, per predict, µs (a failed request counts as
    /// [`REPLY_TIMEOUT`]).
    pub predict_us: Samples,
    /// Due time to reply, per update, µs.
    pub update_us: Samples,
    /// Send time minus due time, per request, µs.
    pub late_us: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Replies whose user or probability was wrong.
    pub bad_replies: u64,
    /// Time spent inside `submit_many`/`submit_updates`, and requests
    /// submitted through them.
    pub submit_ns: u64,
    pub submitted: u64,
    /// Most requests sent and not yet harvested.
    pub outstanding_max: u64,
    /// Requests still outstanding when the last one was sent.
    pub outstanding_end: u64,
    pub wall_s: f64,
    /// CPU of every thread but the generator's during the phase.
    pub system_cpu_ns: u64,
    /// The same CPU per predict, over consecutive windows of the phase.
    pub cpu_us_per_predict: Samples,
}

impl PhaseResult {
    pub fn predicts(&self) -> u64 {
        self.predict_us.len() as u64
    }

    /// The system's CPU µs per predict (per session): the median over the
    /// phase's windows, or the whole phase's when it had too few.
    pub fn cpu_us_per_session(&self) -> (f64, usize) {
        match self.cpu_us_per_predict.median() {
            Some(m) if self.cpu_us_per_predict.len() >= 3 => (m, self.cpu_us_per_predict.len()),
            _ => (
                self.system_cpu_ns as f64 / 1_000.0 / self.predicts().max(1) as f64,
                1,
            ),
        }
    }
}

enum Pending {
    Predict {
        user: u64,
        rx: mpsc::Receiver<Prediction>,
    },
    Update(mpsc::Receiver<()>),
}

struct Sent {
    due: Instant,
    pending: Pending,
}

/// A reply's state when the generator looks at it.
enum Reply<T> {
    Ready(T),
    NotYet,
    /// Timed out or disconnected.
    Failed,
}

fn poll<T>(rx: &mpsc::Receiver<T>, deadline: Instant, now: Instant) -> Reply<T> {
    match rx.try_recv() {
        Ok(value) => Reply::Ready(value),
        Err(mpsc::TryRecvError::Empty) if now < deadline => Reply::NotYet,
        Err(_) => Reply::Failed,
    }
}

fn elapsed_ns(start: Instant, now: Instant) -> u64 {
    u64::try_from(now.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// The generator's one thread: sends each request when due and, between
/// sends, harvests replies in sending order. It never blocks: it sleeps
/// only through gaps longer than [`SPIN_NS`] with nothing outstanding and
/// otherwise yields, so at low rates a CPU stays awake between requests
/// instead of paying a virtual CPU's wake-up.
fn drive(engine: &BatchServingEngine, schedule: &[Scheduled], predicts: u64, r: &mut PhaseResult) {
    let timeout_us = REPLY_TIMEOUT.as_secs_f64() * 1e6;
    let window = (predicts / CPU_WINDOWS).max(MIN_WINDOW);
    let mut window_start = (sys::process_cpu_ns(Some(GEN_THREAD_PREFIX)), 0u64);
    let mut outstanding: VecDeque<Sent> = VecDeque::new();
    // A short lead so the first requests are not already late.
    let start = Instant::now() + Duration::from_millis(1);
    let mut i = 0;
    loop {
        let now_ns = elapsed_ns(start, Instant::now());
        if i < schedule.len() && schedule[i].due_ns <= now_ns {
            let end = i + schedule[i..].partition_point(|s| s.due_ns <= now_ns);
            // Submit runs of one kind in schedule order, so a user's
            // predict and update reach the engine in the order they were
            // due.
            let mut k = i;
            while k < end {
                let is_predict = matches!(schedule[k].op, Op::Predict(_));
                let run_end = k + schedule[k..end]
                    .iter()
                    .take_while(|s| matches!(s.op, Op::Predict(_)) == is_predict)
                    .count();
                let run = &schedule[k..run_end];
                let due = |s: &Scheduled| start + Duration::from_nanos(s.due_ns);
                let t0 = Instant::now();
                if is_predict {
                    let requests: Vec<PredictRequest> = run
                        .iter()
                        .map(|s| match s.op {
                            Op::Predict(r) => r,
                            Op::Update(_) => unreachable!("run is predict-only"),
                        })
                        .collect();
                    let receivers = engine.submit_many(&requests);
                    r.submit_ns += elapsed_ns(t0, Instant::now());
                    for ((s, q), rx) in run.iter().zip(&requests).zip(receivers) {
                        let user = q.user_id.0;
                        outstanding.push_back(Sent {
                            due: due(s),
                            pending: Pending::Predict { user, rx },
                        });
                    }
                } else {
                    let requests: Vec<UpdateRequest> = run
                        .iter()
                        .map(|s| match s.op {
                            Op::Update(r) => r,
                            Op::Predict(_) => unreachable!("run is update-only"),
                        })
                        .collect();
                    let receivers = engine.submit_updates(&requests);
                    r.submit_ns += elapsed_ns(t0, Instant::now());
                    for (s, rx) in run.iter().zip(receivers) {
                        outstanding.push_back(Sent {
                            due: due(s),
                            pending: Pending::Update(rx),
                        });
                    }
                }
                let sent_ns = elapsed_ns(start, t0);
                for s in run {
                    r.late_us
                        .push(sent_ns.saturating_sub(s.due_ns) as f64 / 1_000.0);
                }
                r.submitted += run.len() as u64;
                k = run_end;
            }
            i = end;
            r.outstanding_max = r.outstanding_max.max(outstanding.len() as u64);
            if i == schedule.len() {
                r.outstanding_end = outstanding.len() as u64;
            }
            continue;
        }

        // Harvest every reply that is ready, oldest first.
        let mut harvested = false;
        while let Some(front) = outstanding.front() {
            let now = Instant::now();
            let deadline = front.due + REPLY_TIMEOUT;
            let latency_us = now.saturating_duration_since(front.due).as_secs_f64() * 1e6;
            match &front.pending {
                Pending::Predict { user, rx } => {
                    match poll(rx, deadline, now) {
                        Reply::NotYet => break,
                        Reply::Ready(p) => {
                            r.predict_us.push(latency_us);
                            if p.user_id.0 != *user || !(0.0..=1.0).contains(&p.probability) {
                                r.bad_replies += 1;
                            }
                        }
                        Reply::Failed => {
                            r.failed += 1;
                            r.predict_us.push(timeout_us);
                        }
                    }
                    let done = r.predict_us.len() as u64;
                    if done - window_start.1 >= window {
                        let cpu = sys::process_cpu_ns(Some(GEN_THREAD_PREFIX));
                        r.cpu_us_per_predict.push(
                            cpu.saturating_sub(window_start.0) as f64
                                / 1_000.0
                                / (done - window_start.1) as f64,
                        );
                        window_start = (cpu, done);
                    }
                }
                Pending::Update(rx) => match poll(rx, deadline, now) {
                    Reply::NotYet => break,
                    Reply::Ready(()) => r.update_us.push(latency_us),
                    Reply::Failed => {
                        r.failed += 1;
                        r.update_us.push(timeout_us);
                    }
                },
            }
            outstanding.pop_front();
            harvested = true;
        }
        if i == schedule.len() && outstanding.is_empty() {
            return;
        }
        if !harvested {
            let gap = schedule
                .get(i)
                .map_or(0, |s| s.due_ns.saturating_sub(now_ns));
            if outstanding.is_empty() && gap > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(gap - SPIN_NS / 2));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Runs one schedule against the engine from the generator's thread and
/// measures the system's CPU outside it.
pub fn run_phase(engine: &BatchServingEngine, schedule: &[Scheduled], rate: f64) -> PhaseResult {
    let predicts = schedule
        .iter()
        .filter(|s| matches!(s.op, Op::Predict(_)))
        .count() as u64;
    let mut r = PhaseResult {
        rate,
        attempted: schedule.len() as u64,
        predict_us: Samples::with_capacity(predicts as usize),
        late_us: Samples::with_capacity(schedule.len()),
        ..PhaseResult::default()
    };
    let cpu0 = sys::process_cpu_ns(Some(GEN_THREAD_PREFIX));
    let wall0 = Instant::now();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("{GEN_THREAD_PREFIX}loop"))
            .spawn_scoped(scope, || drive(engine, schedule, predicts, &mut r))
            .expect("spawn generator thread")
            .join()
            .expect("generator thread panicked");
    });
    r.wall_s = wall0.elapsed().as_secs_f64();
    r.system_cpu_ns = sys::process_cpu_ns(Some(GEN_THREAD_PREFIX)).saturating_sub(cpu0);
    r
}

/// Sends requests closed-loop in chunks, awaiting every reply with
/// [`REPLY_TIMEOUT`]: the untimed warm-up path. Returns the failures.
pub fn run_closed(engine: &BatchServingEngine, ops: &[Op], chunk: usize) -> u64 {
    let mut failed = 0;
    for part in ops.chunks(chunk) {
        let predicts: Vec<PredictRequest> = part
            .iter()
            .filter_map(|op| match op {
                Op::Predict(r) => Some(*r),
                Op::Update(_) => None,
            })
            .collect();
        let updates: Vec<UpdateRequest> = part
            .iter()
            .filter_map(|op| match op {
                Op::Update(r) => Some(*r),
                Op::Predict(_) => None,
            })
            .collect();
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let predict_rx = engine.submit_many(&predicts);
        let update_rx = engine.submit_updates(&updates);
        for rx in predict_rx {
            failed += u64::from(
                rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .is_err(),
            );
        }
        for rx in update_rx {
            failed += u64::from(
                rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .is_err(),
            );
        }
    }
    failed
}
