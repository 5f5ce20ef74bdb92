//! Batched request scheduling: coalesce concurrent session-start requests
//! into one GRU/MLP forward pass per batch.
//!
//! At production request rates many session starts are in flight at once,
//! so the serving engine drains the arrival queue into batches, assembles
//! each batch's states and inputs into one contiguous `B × d` buffer apiece
//! and serves it with **one graph-free forward pass**
//! ([`RnnModel::predict_proba_rows`] / [`RnnModel::advance_state_rows`]).
//! A batch of one runs the same kernel: there is no separate single-request
//! path.
//!
//! Two layers are provided:
//!
//! * [`BatchScheduler`] — the synchronous core: a queue plus flush logic
//!   against a [`ShardedStateStore`], deterministic and directly testable
//!   for batched-vs-single equivalence;
//! * [`BatchServingEngine`] — worker threads around the same logic: clients
//!   submit requests from any thread, workers drain the shared queue in
//!   batches of up to `max_batch`, reply over per-request channels.

use crate::sharded::ShardedStateStore;
use pp_data::schema::{Context, UserId};
use pp_obs::sync::LockPolicy;
use pp_rnn::RnnModel;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A session-start prediction request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// The user starting a session.
    pub user_id: UserId,
    /// Session-start timestamp (UNIX seconds).
    pub timestamp: i64,
    /// Context observed at session start.
    pub context: Context,
    /// Seconds since the user's last hidden-state update (0 for cold start).
    pub elapsed_secs: i64,
}

/// A session-close hidden-state update request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateRequest {
    /// The user whose session closed.
    pub user_id: UserId,
    /// Session-start timestamp (UNIX seconds).
    pub timestamp: i64,
    /// Context observed during the session.
    pub context: Context,
    /// Seconds between this session and the previous state update.
    pub delta_t_secs: i64,
    /// Whether the user accessed the activity during the session.
    pub accessed: bool,
}

/// A served prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The user the prediction is for.
    pub user_id: UserId,
    /// Predicted access probability.
    pub probability: f64,
}

/// Counters describing scheduler behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Predictions served.
    pub predictions: u64,
    /// Hidden-state updates applied.
    pub updates: u64,
    /// Forward passes executed (batched or singleton).
    pub batches: u64,
    /// Largest batch coalesced into one forward pass.
    pub largest_batch: usize,
}

impl SchedulerStats {
    /// Mean requests per forward pass (1.0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            (self.predictions + self.updates) as f64 / self.batches as f64
        }
    }
}

/// Synchronous batching core: queue session-start requests, then flush them
/// through batched forward passes against a sharded state store. Every
/// chunk, including a chunk of one, runs the same graph-free kernel.
#[derive(Debug)]
pub struct BatchScheduler<'a> {
    model: &'a RnnModel,
    store: &'a ShardedStateStore,
    max_batch: usize,
    /// Oldest-first queue of (submission time, request); requests submitted
    /// without a timestamp carry `i64::MIN` and are always considered due.
    queue: VecDeque<(i64, PredictRequest)>,
    /// Maximum seconds a queued request may wait before a partial batch
    /// flushes anyway (`None` = only flush when asked or full).
    max_wait_secs: Option<i64>,
    stats: SchedulerStats,
}

impl<'a> BatchScheduler<'a> {
    /// Creates a scheduler around a model and sharded store.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(model: &'a RnnModel, store: &'a ShardedStateStore, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Self {
            model,
            store,
            max_batch,
            queue: VecDeque::new(),
            max_wait_secs: None,
            stats: SchedulerStats::default(),
        }
    }

    /// Creates a scheduler whose [`BatchScheduler::flush_due`] flushes a
    /// partial batch once its oldest request has waited `max_wait_secs` —
    /// under low traffic requests are served within the deadline instead of
    /// waiting (potentially forever) for `max_batch` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `max_wait_secs` is negative.
    pub fn with_max_wait(
        model: &'a RnnModel,
        store: &'a ShardedStateStore,
        max_batch: usize,
        max_wait_secs: i64,
    ) -> Self {
        assert!(max_wait_secs >= 0, "max_wait_secs must be non-negative");
        let mut scheduler = Self::new(model, store, max_batch);
        scheduler.max_wait_secs = Some(max_wait_secs);
        scheduler
    }

    /// The configured maximum batch size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The configured partial-batch flush deadline, if any.
    pub fn max_wait_secs(&self) -> Option<i64> {
        self.max_wait_secs
    }

    /// Number of queued, not-yet-flushed requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Queues one session-start request with unknown submission time: when
    /// a `max_wait` deadline is configured, [`BatchScheduler::flush_due`]
    /// treats it as having already waited past any deadline.
    pub fn submit(&mut self, request: PredictRequest) {
        self.queue.push_back((i64::MIN, request));
    }

    /// Queues one session-start request submitted at `now` (seconds on the
    /// same clock later passed to [`BatchScheduler::flush_due`]).
    pub fn submit_at(&mut self, request: PredictRequest, now: i64) {
        self.queue.push_back((now, request));
    }

    /// Flushes the queue, serving every pending request in batches of up to
    /// `max_batch`. Results are in submission order.
    pub fn flush(&mut self) -> Vec<Prediction> {
        let requests: Vec<PredictRequest> = self.queue.drain(..).map(|(_, r)| r).collect();
        self.serve_chunks(&requests)
    }

    /// Flushes only what is *due* at `now`: every full batch, plus — when a
    /// `max_wait` deadline is configured — a final partial batch whose
    /// oldest request has already waited `max_wait_secs`. Without a deadline
    /// this serves full batches only, leaving the remainder queued.
    pub fn flush_due(&mut self, now: i64) -> Vec<Prediction> {
        let mut due = self.queue.len() - self.queue.len() % self.max_batch;
        if due < self.queue.len() {
            if let Some(max_wait) = self.max_wait_secs {
                // Submission times are caller-supplied and need not be
                // monotone, so scan the leftovers for the earliest stamp
                // (an untimed `submit` stamp of `i64::MIN` is always due).
                let oldest = self
                    .queue
                    .iter()
                    .skip(due)
                    .map(|&(submitted, _)| submitted)
                    .min()
                    .expect("leftover entries exist");
                if oldest == i64::MIN || now.saturating_sub(oldest) >= max_wait {
                    due = self.queue.len();
                }
            }
        }
        let requests: Vec<PredictRequest> = self.queue.drain(..due).map(|(_, r)| r).collect();
        self.serve_chunks(&requests)
    }

    fn serve_chunks(&mut self, requests: &[PredictRequest]) -> Vec<Prediction> {
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(self.max_batch) {
            out.extend(predict_chunk(self.model, self.store, chunk, None));
            self.stats.predictions += chunk.len() as u64;
            self.stats.batches += 1;
            self.stats.largest_batch = self.stats.largest_batch.max(chunk.len());
        }
        out
    }

    /// Convenience: submit a whole wave of concurrent requests and flush.
    pub fn run(&mut self, requests: impl IntoIterator<Item = PredictRequest>) -> Vec<Prediction> {
        for request in requests {
            self.submit(request);
        }
        self.flush()
    }

    /// Applies session-close updates in batches of up to `max_batch`,
    /// advancing and re-storing each user's hidden state.
    ///
    /// Multiple updates for the *same* user are applied in order: a batch
    /// never contains the same user twice, so the second update reads the
    /// state the first one wrote.
    pub fn apply_updates(&mut self, requests: &[UpdateRequest]) {
        let mut remaining: VecDeque<&UpdateRequest> = requests.iter().collect();
        while !remaining.is_empty() {
            // Greedily take up to max_batch requests with distinct users;
            // same-user duplicates are deferred to a later round. Once the
            // chunk fills we stop scanning, so each round is O(chunk +
            // duplicates), not O(remaining).
            let mut chunk: Vec<UpdateRequest> = Vec::new();
            let mut seen = HashSet::new();
            let mut deferred: Vec<&UpdateRequest> = Vec::new();
            while chunk.len() < self.max_batch {
                let Some(request) = remaining.pop_front() else {
                    break;
                };
                if seen.insert(request.user_id) {
                    chunk.push(*request);
                } else {
                    deferred.push(request);
                }
            }
            // Deferred duplicates precede everything still in `remaining` in
            // the original sequence, so put them back at the front to keep
            // per-user ordering.
            for request in deferred.into_iter().rev() {
                remaining.push_front(request);
            }

            update_chunk(self.model, self.store, &chunk, None);
            self.stats.updates += chunk.len() as u64;
            self.stats.batches += 1;
            self.stats.largest_batch = self.stats.largest_batch.max(chunk.len());
        }
    }
}

/// Stage boundaries of one traced batch execution, on the wall clock the
/// tracer translates to its own epoch. Initialized to the execution start
/// and advanced by `predict_chunk` / `update_chunk` as stages complete, so
/// untouched marks yield zero-length (never negative) stage spans.
#[derive(Debug, Clone, Copy)]
struct BatchMarks {
    /// When the worker stopped gathering/coalescing and began executing.
    exec_start: std::time::Instant,
    /// State fetch + featurization done.
    assembly_done: std::time::Instant,
    /// Forward pass done.
    forward_done: std::time::Instant,
    /// Hidden-state write-back done (equals `forward_done` for predict
    /// batches, which write no state).
    writeback_done: std::time::Instant,
}

impl BatchMarks {
    fn start() -> Self {
        let now = std::time::Instant::now();
        Self {
            exec_start: now,
            assembly_done: now,
            forward_done: now,
            writeback_done: now,
        }
    }
}

/// Reads each user's stored state, or `h_0` for a user with none, into one
/// contiguous `B × state_dim` buffer.
///
/// # Panics
///
/// Panics if a stored state's length does not match the model.
fn assemble_states(
    model: &RnnModel,
    store: &ShardedStateStore,
    users: impl ExactSizeIterator<Item = UserId>,
) -> Vec<f32> {
    let dim = model.state_dim();
    let mut states = Vec::with_capacity(users.len() * dim);
    for user in users {
        let start = states.len();
        if !store.append_state(user, &mut states) {
            // `initial_state()` is all zeros.
            states.resize(start + dim, 0.0);
        }
        assert_eq!(states.len() - start, dim, "stored state length mismatch");
    }
    states
}

/// Serves one chunk of predictions (shared by the scheduler and the
/// threaded engine); callers account for batching statistics themselves.
/// The chunk's states and inputs are assembled into one contiguous buffer
/// each and served by one graph-free forward pass, whatever the chunk's
/// size — `max_batch = 1` runs the same kernel one row at a time. `marks`
/// (traced engine batches only) receives the stage boundaries for span
/// emission.
fn predict_chunk(
    model: &RnnModel,
    store: &ShardedStateStore,
    chunk: &[PredictRequest],
    mut marks: Option<&mut BatchMarks>,
) -> Vec<Prediction> {
    let obs = crate::obs::ServingObs::global();
    obs.batch_size.record(chunk.len() as u64);
    let assembly = pp_obs::Stopwatch::start();
    let states = assemble_states(model, store, chunk.iter().map(|r| r.user_id));
    let mut inputs = Vec::with_capacity(chunk.len() * model.predict_input_dims());
    for r in chunk {
        model.featurizer().append_predict_input(
            r.timestamp,
            &r.context,
            r.elapsed_secs,
            &mut inputs,
        );
    }
    assembly.record(&obs.batch_assembly_ns);
    if let Some(marks) = marks.as_mut() {
        marks.assembly_done = std::time::Instant::now();
    }
    let forward = pp_obs::Stopwatch::start();
    let probabilities = model.predict_proba_rows(states, inputs);
    forward.record(&obs.forward_pass_ns);
    if let Some(marks) = marks {
        let now = std::time::Instant::now();
        marks.forward_done = now;
        marks.writeback_done = now;
    }
    chunk
        .iter()
        .zip(probabilities)
        .map(|(request, probability)| Prediction {
            user_id: request.user_id,
            probability,
        })
        .collect()
}

/// One queued unit of work: serve a prediction or apply a state update.
#[derive(Debug)]
enum JobKind {
    Predict {
        request: PredictRequest,
        reply: mpsc::Sender<Prediction>,
    },
    Update {
        request: UpdateRequest,
        reply: mpsc::Sender<()>,
    },
}

impl JobKind {
    fn user_id(&self) -> UserId {
        match self {
            JobKind::Predict { request, .. } => request.user_id,
            JobKind::Update { request, .. } => request.user_id,
        }
    }
}

#[derive(Debug)]
struct Job {
    kind: JobKind,
    /// When the job entered the queue. The coalesce flush deadline is
    /// anchored here — at *arrival* — not at the instant a worker first
    /// observes the queue, so queue residence while workers are busy counts
    /// against the coalesce budget instead of being added on top of it.
    arrived: std::time::Instant,
    /// Whether this job's user is in the tracer's sampled subset
    /// (decided once, at submission — workers never re-hash).
    traced: bool,
    /// When a worker claimed the job out of its shard queue (stamped in
    /// `gather`, traced jobs only) — the queue-wait / coalesce-hold
    /// boundary in the job's span tree.
    claimed: Option<std::time::Instant>,
}

impl Job {
    fn new(kind: JobKind, arrived: std::time::Instant) -> Self {
        let tracer = pp_obs::Tracer::global();
        let traced = tracer.enabled() && tracer.sampled(kind.user_id().0);
        Self {
            kind,
            arrived,
            traced,
            claimed: None,
        }
    }
}

/// One shard's job queue. A user's jobs always land in the queue of the
/// shard their hidden state lives in, and the queue is drained FIFO by at
/// most one worker at a time (the `claimed` flag is held from drain until
/// the batch's state reads/writes complete) — so per-user predict/update
/// ordering survives both multi-worker draining and work stealing without
/// any global lock.
#[derive(Debug, Default)]
struct ShardQueue {
    jobs: Mutex<VecDeque<Job>>,
    /// Lock-free emptiness hint so gathering workers skip idle shards
    /// without taking the queue lock.
    len: AtomicUsize,
    /// Exclusively held by one worker from drain to state write-back.
    claimed: AtomicBool,
    /// Last worker to claim this queue — a best-effort hint so an enqueue
    /// can also wake a coalescing *thief* currently holding the claim
    /// (whose private signal the home-worker bump would miss). Stale
    /// values only cost a spurious wakeup.
    claimant: AtomicUsize,
}

/// A worker's private wakeup channel: submissions for shards the worker
/// owns bump `seq` and notify `cv`, so a worker holding a partial batch
/// open is woken by exactly the arrivals that could join its batch — it can
/// never consume a wakeup another (idle) worker needed.
#[derive(Debug, Default)]
struct WorkerSignal {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl WorkerSignal {
    fn bump(&self) {
        let mut seq = self.seq.lock_or_panic("worker signal");
        *seq += 1;
        self.cv.notify_all();
    }
}

#[derive(Debug, Default)]
struct WorkerCounters {
    batches: AtomicU64,
    predictions: AtomicU64,
    updates: AtomicU64,
    steals: AtomicU64,
    idle_ns: AtomicU64,
}

/// Per-worker counters of a [`BatchServingEngine`]
/// ([`BatchServingEngine::worker_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker index (also the owner of shards `s` with
    /// `s % workers == worker`).
    pub worker: usize,
    /// Batches this worker served.
    pub batches: u64,
    /// Predictions this worker served.
    pub predictions: u64,
    /// State updates this worker applied.
    pub updates: u64,
    /// Batches that drained at least one job from a shard this worker does
    /// not own (work stealing under skewed traffic).
    pub steals: u64,
    /// Nanoseconds spent parked waiting for work.
    pub idle_ns: u64,
}

#[derive(Debug)]
struct EngineShared {
    model: Arc<RnnModel>,
    store: Arc<ShardedStateStore>,
    max_batch: usize,
    /// How long a worker holds a non-full batch open for more arrivals
    /// before serving it (`None` = serve whatever is queued immediately).
    coalesce_wait: Option<std::time::Duration>,
    /// One queue per state-store shard (`queues.len() == store.num_shards()`).
    queues: Vec<ShardQueue>,
    /// One private wakeup channel per worker.
    signals: Vec<WorkerSignal>,
    worker_counters: Vec<WorkerCounters>,
    /// Generation counter for idle workers: bumped (under its mutex, with
    /// `idle.notify_all`) whenever work appears or a claimed shard is
    /// released. Idle workers re-scan whenever the generation moves, so no
    /// submission can be lost between a scan and a park.
    work_gen: Mutex<u64>,
    idle: Condvar,
    /// Jobs currently queued across all shards (for the queue-depth gauge).
    queued: AtomicUsize,
    shutdown: AtomicBool,
    predictions: AtomicU64,
    updates: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicUsize,
}

impl EngineShared {
    fn num_workers(&self) -> usize {
        self.signals.len()
    }

    fn owner(&self, shard: usize) -> usize {
        shard % self.num_workers()
    }

    /// Announce new or newly-claimable work to idle workers.
    fn bump_work_gen(&self) {
        let mut gen = self.work_gen.lock_or_panic("work generation");
        *gen += 1;
        drop(gen);
        self.idle.notify_all();
    }
}

/// Aggregate counters of a [`BatchServingEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Predictions served.
    pub predictions: u64,
    /// Hidden-state updates applied.
    pub updates: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Largest coalesced batch.
    pub largest_batch: usize,
}

impl EngineStats {
    /// Mean requests per forward pass (1.0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            (self.predictions + self.updates) as f64 / self.batches as f64
        }
    }
}

/// A multi-threaded batched serving engine: `workers` threads drain
/// per-shard job queues in batches of up to `max_batch` and reply per
/// request.
///
/// Each worker **owns** the shards `s` of the engine's
/// [`ShardedStateStore`] with `s % workers == worker`, so a user's jobs
/// have a home worker and per-user predict/update ordering is preserved
/// without a global lock; idle workers **steal** whole shard queues from
/// busy peers, so skewed traffic still saturates every core.
///
/// With `max_batch = 1` every request is served as a batch of one — the
/// same kernel one row at a time — which is the baseline the `load_gen`
/// benchmark compares against.
#[derive(Debug)]
pub struct BatchServingEngine {
    shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchServingEngine {
    /// Starts `workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `max_batch` is zero.
    pub fn start(
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        workers: usize,
        max_batch: usize,
    ) -> Self {
        Self::start_with_coalesce(model, store, workers, max_batch, None)
    }

    /// Starts `workers` worker threads that hold a non-full batch open for
    /// up to `coalesce_wait` waiting for more arrivals — a max-wait
    /// deadline: under heavy traffic batches fill immediately, under a
    /// trickle the partial batch still flushes within the deadline instead
    /// of serving everything as singletons.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `max_batch` is zero.
    pub fn start_with_coalesce(
        model: Arc<RnnModel>,
        store: Arc<ShardedStateStore>,
        workers: usize,
        max_batch: usize,
        coalesce_wait: Option<std::time::Duration>,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(max_batch > 0, "max_batch must be positive");
        let num_shards = store.num_shards();
        let shared = Arc::new(EngineShared {
            model,
            store,
            max_batch,
            coalesce_wait,
            queues: (0..num_shards).map(|_| ShardQueue::default()).collect(),
            signals: (0..workers).map(|_| WorkerSignal::default()).collect(),
            worker_counters: (0..workers).map(|_| WorkerCounters::default()).collect(),
            work_gen: Mutex::new(0),
            idle: Condvar::new(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            predictions: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            largest_batch: AtomicUsize::new(0),
        });
        let workers = (0..workers)
            .map(|worker| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();
        Self { shared, workers }
    }

    /// The number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.shared.num_workers()
    }

    /// The worker that owns `user`'s home shard (and therefore serves the
    /// user's jobs unless a peer steals the shard while this worker is
    /// busy).
    pub fn home_worker(&self, user: UserId) -> usize {
        self.shared.owner(self.shared.store.shard_index(user))
    }

    /// Routes jobs to their home-shard queues and wakes workers: every home
    /// worker gets a targeted signal (so a worker coalescing a partial
    /// batch learns about joinable arrivals), and the idle generation is
    /// bumped with `notify_all` (so no idle worker can miss work because a
    /// busy peer consumed the only wakeup).
    fn enqueue(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let shared = &self.shared;
        let arrived = jobs.len();
        // Count the jobs as queued before publishing any of them: a worker
        // can only drain a job after taking the shard lock this thread
        // releases below, so the lock orders this add before the worker's
        // `fetch_sub` and the depth never underflows.
        let depth = shared.queued.fetch_add(arrived, Ordering::Relaxed) + arrived;
        crate::obs::ServingObs::global()
            .queue_depth
            .set(depth as f64);
        let mut notify_workers = vec![false; shared.num_workers()];
        for job in jobs {
            let shard = shared.store.shard_index(job.kind.user_id());
            notify_workers[shared.owner(shard)] = true;
            let queue = &shared.queues[shard];
            let mut q = queue.jobs.lock_or_panic("shard queue");
            q.push_back(job);
            queue.len.store(q.len(), Ordering::Release);
            drop(q);
            // If a (possibly stealing) worker holds this shard's claim
            // mid-coalesce, wake it too — the home worker can't drain a
            // claimed queue on its behalf.
            if queue.claimed.load(Ordering::Acquire) {
                // Acquire pairs with the claimant Release store in gather:
                // Relaxed here could read a stale claimant and wake the
                // wrong worker, leaving the real claimant parked until its
                // coalescing-window timeout (a tail-latency spike, not a
                // hang — but the window is the latency budget).
                let claimant = queue.claimant.load(Ordering::Acquire);
                if claimant < notify_workers.len() {
                    notify_workers[claimant] = true;
                }
            }
        }
        shared.bump_work_gen();
        for (worker, notify) in notify_workers.into_iter().enumerate() {
            if notify {
                shared.signals[worker].bump();
            }
        }
    }

    /// Submits a request; the returned receiver yields the prediction once a
    /// worker has served its batch.
    pub fn submit(&self, request: PredictRequest) -> mpsc::Receiver<Prediction> {
        let (reply, receiver) = mpsc::channel();
        self.enqueue(vec![Job::new(
            JobKind::Predict { request, reply },
            std::time::Instant::now(),
        )]);
        receiver
    }

    /// Submits a burst of requests in one enqueue pass — the natural entry
    /// point for front-ends that already hold several concurrent session
    /// starts, and what lets workers coalesce full batches instead of
    /// draining a trickle.
    pub fn submit_many(&self, requests: &[PredictRequest]) -> Vec<mpsc::Receiver<Prediction>> {
        let arrived = std::time::Instant::now();
        let mut receivers = Vec::with_capacity(requests.len());
        let jobs = requests
            .iter()
            .map(|&request| {
                let (reply, receiver) = mpsc::channel();
                receivers.push(receiver);
                Job::new(JobKind::Predict { request, reply }, arrived)
            })
            .collect();
        self.enqueue(jobs);
        receivers
    }

    /// Submits a session-close hidden-state update; the returned receiver
    /// yields `()` once the state has been advanced and re-stored. Updates
    /// and predictions for the same user are applied in submission order
    /// (they share the user's home-shard queue).
    pub fn submit_update(&self, request: UpdateRequest) -> mpsc::Receiver<()> {
        let (reply, receiver) = mpsc::channel();
        self.enqueue(vec![Job::new(
            JobKind::Update { request, reply },
            std::time::Instant::now(),
        )]);
        receiver
    }

    /// Submits a burst of updates in one enqueue pass.
    pub fn submit_updates(&self, requests: &[UpdateRequest]) -> Vec<mpsc::Receiver<()>> {
        let arrived = std::time::Instant::now();
        let mut receivers = Vec::with_capacity(requests.len());
        let jobs = requests
            .iter()
            .map(|&request| {
                let (reply, receiver) = mpsc::channel();
                receivers.push(receiver);
                Job::new(JobKind::Update { request, reply }, arrived)
            })
            .collect();
        self.enqueue(jobs);
        receivers
    }

    /// Submits a burst of updates and blocks until every state has been
    /// advanced and re-stored.
    pub fn apply_updates_blocking(&self, requests: &[UpdateRequest]) {
        for receiver in self.submit_updates(requests) {
            receiver
                .recv()
                .expect("engine worker dropped the update reply channel");
        }
    }

    /// Submits a request and blocks for the prediction.
    pub fn predict_blocking(&self, request: PredictRequest) -> Prediction {
        self.submit(request)
            .recv()
            .expect("engine worker dropped the reply channel")
    }

    /// Submits a burst of requests in one queue lock and blocks until every
    /// prediction is served, returning them in request order. This is the
    /// integration point for downstream consumers (the `pp-precompute`
    /// decision engine) that want one batched score vector per wave of
    /// session starts.
    pub fn predict_many_blocking(&self, requests: &[PredictRequest]) -> Vec<Prediction> {
        self.submit_many(requests)
            .into_iter()
            .map(|receiver| {
                receiver
                    .recv()
                    .expect("engine worker dropped the reply channel")
            })
            .collect()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            predictions: self.shared.predictions.load(Ordering::Relaxed),
            updates: self.shared.updates.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            largest_batch: self.shared.largest_batch.load(Ordering::Relaxed),
        }
    }

    /// Per-worker counters accumulated so far, indexed by worker.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .worker_counters
            .iter()
            .enumerate()
            .map(|(worker, c)| WorkerStats {
                worker,
                batches: c.batches.load(Ordering::Relaxed),
                predictions: c.predictions.load(Ordering::Relaxed),
                updates: c.updates.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                idle_ns: c.idle_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Drop for BatchServingEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.bump_work_gen();
        for signal in &self.shared.signals {
            signal.bump();
        }
        // Workers drain every queued job before exiting, so in-flight
        // receivers still get their replies.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Advances and re-stores one chunk of session-close updates; callers
/// guarantee the chunk holds each user at most once. `marks` (traced
/// engine batches only) receives the stage boundaries for span emission.
fn update_chunk(
    model: &RnnModel,
    store: &ShardedStateStore,
    chunk: &[UpdateRequest],
    mut marks: Option<&mut BatchMarks>,
) {
    let obs = crate::obs::ServingObs::global();
    obs.batch_size.record(chunk.len() as u64);
    let assembly = pp_obs::Stopwatch::start();
    let states = assemble_states(model, store, chunk.iter().map(|r| r.user_id));
    let mut inputs = Vec::with_capacity(chunk.len() * model.update_input_dims());
    for r in chunk {
        model.featurizer().append_update_input(
            r.timestamp,
            &r.context,
            r.delta_t_secs,
            r.accessed,
            &mut inputs,
        );
    }
    assembly.record(&obs.batch_assembly_ns);
    if let Some(marks) = marks.as_mut() {
        marks.assembly_done = std::time::Instant::now();
    }
    let forward = pp_obs::Stopwatch::start();
    let next_states = model.advance_state_rows(states, inputs);
    forward.record(&obs.forward_pass_ns);
    if let Some(marks) = marks.as_mut() {
        marks.forward_done = std::time::Instant::now();
    }
    for (request, next) in chunk
        .iter()
        .zip(next_states.chunks_exact(model.state_dim()))
    {
        store.put_state(request.user_id, next);
    }
    if let Some(marks) = marks {
        marks.writeback_done = std::time::Instant::now();
    }
}

/// A batch under assembly: homogeneous-kind jobs plus the shard claims that
/// stay held until the batch's state reads and write-backs complete.
struct GatheredBatch {
    jobs: Vec<Job>,
    claimed_shards: Vec<usize>,
    stole: bool,
}

/// Scans shard queues — the worker's own shards first, then everyone
/// else's (work stealing) — claiming each non-empty unclaimed queue and
/// draining a FIFO prefix into `batch`. A queue's prefix stops at a
/// kind change or (for updates) a user already in the batch, so per-user
/// ordering and same-user-once-per-update-batch both hold.
fn gather(
    shared: &EngineShared,
    worker: usize,
    batch: &mut GatheredBatch,
    seen_users: &mut HashSet<UserId>,
) {
    let num_shards = shared.queues.len();
    let workers = shared.num_workers();
    let own = (worker..num_shards).step_by(workers);
    let foreign = (0..num_shards).filter(|s| s % workers != worker);
    for shard in own.chain(foreign) {
        if batch.jobs.len() >= shared.max_batch {
            break;
        }
        let queue = &shared.queues[shard];
        let already_claimed = batch.claimed_shards.contains(&shard);
        if !already_claimed {
            if queue.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            // Acquire on failure too: the loser reads the queue state the
            // winner's claim protects (len, claimant) right after this —
            // a Relaxed failure load would let those reads be satisfied
            // from before the winner's Release.
            if queue
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // Release pairs with the Acquire claimant load in enqueue: a
            // Relaxed store could be observed after `claimed` itself, so
            // the enqueuer would target whichever worker claimed this
            // shard *last* cycle and skip waking the current claimant.
            queue.claimant.store(worker, Ordering::Release);
        }
        let mut drained = 0usize;
        {
            // One lazy clock read per drained queue, shared by every traced
            // job claimed from it (untraced batches never read the clock).
            let mut claim_now: Option<std::time::Instant> = None;
            let mut q = queue.jobs.lock_or_panic("shard queue");
            while batch.jobs.len() < shared.max_batch {
                let Some(front) = q.front() else { break };
                if let Some(first) = batch.jobs.first() {
                    if std::mem::discriminant(&first.kind) != std::mem::discriminant(&front.kind) {
                        break;
                    }
                }
                if matches!(front.kind, JobKind::Update { .. })
                    && !seen_users.insert(front.kind.user_id())
                {
                    // A second update for the same user waits for the next
                    // batch so it reads the state the first one writes.
                    break;
                }
                let mut job = q.pop_front().expect("front exists");
                if job.traced {
                    job.claimed = Some(*claim_now.get_or_insert_with(std::time::Instant::now));
                }
                batch.jobs.push(job);
                drained += 1;
            }
            queue.len.store(q.len(), Ordering::Release);
        }
        if already_claimed {
            continue;
        }
        if drained == 0 {
            queue.claimed.store(false, Ordering::Release);
        } else {
            batch.claimed_shards.push(shard);
            if shard % workers != worker {
                batch.stole = true;
            }
        }
    }
}

fn worker_loop(shared: &EngineShared, worker: usize) {
    let obs = crate::obs::ServingObs::global();
    let counters = &shared.worker_counters[worker];
    loop {
        // Snapshot the work generation BEFORE scanning: an enqueue racing
        // with the scan moves the generation, so the park below falls
        // through instead of sleeping on work it never saw.
        let gen_before = *shared.work_gen.lock_or_panic("work generation");
        let mut batch = GatheredBatch {
            jobs: Vec::new(),
            claimed_shards: Vec::new(),
            stole: false,
        };
        let mut seen_users = HashSet::new();
        gather(shared, worker, &mut batch, &mut seen_users);

        if batch.jobs.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let parked = std::time::Instant::now();
            let mut gen = shared.work_gen.lock_or_panic("work generation");
            while *gen == gen_before && !shared.shutdown.load(Ordering::SeqCst) {
                gen = shared.idle.wait(gen).expect("idle wait");
            }
            drop(gen);
            let idle_ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
            counters.idle_ns.fetch_add(idle_ns, Ordering::Relaxed);
            obs.worker_idle_ns.add(idle_ns);
            continue;
        }

        // Coalesce: hold a non-full batch open for stragglers, with the
        // flush deadline anchored at the *oldest job's arrival* — queue
        // residence while workers were busy counts against the budget, so
        // no job waits more than `coalesce_wait` past its arrival here.
        if let Some(wait) = shared.coalesce_wait {
            if batch.jobs.len() < shared.max_batch && !shared.shutdown.load(Ordering::SeqCst) {
                let held = pp_obs::Stopwatch::start();
                let oldest = batch
                    .jobs
                    .iter()
                    .map(|j| j.arrived)
                    .min()
                    .expect("non-empty batch");
                let deadline = oldest + wait;
                let signal = &shared.signals[worker];
                while batch.jobs.len() < shared.max_batch && !shared.shutdown.load(Ordering::SeqCst)
                {
                    let now = std::time::Instant::now();
                    let Some(remaining) = deadline.checked_duration_since(now) else {
                        break;
                    };
                    if remaining.is_zero() {
                        break;
                    }
                    // Read the private signal sequence before re-gathering:
                    // an arrival after the read bumps the sequence and skips
                    // the wait; an arrival before it is picked up by the
                    // gather. Either way nothing is lost.
                    let seq_before = *signal.seq.lock_or_panic("worker signal");
                    gather(shared, worker, &mut batch, &mut seen_users);
                    if batch.jobs.len() >= shared.max_batch {
                        break;
                    }
                    let seq = signal.seq.lock_or_panic("worker signal");
                    if *seq == seq_before {
                        let _ = signal
                            .cv
                            .wait_timeout(seq, remaining)
                            .expect("coalesce wait");
                    }
                }
                gather(shared, worker, &mut batch, &mut seen_users);
                held.record(&obs.coalesce_wait_ns);
            }
        }

        let size = batch.jobs.len();
        // All batch-level accounting lands before any reply is sent, so a
        // client that read its reply sees this batch in `stats()`.
        shared.batches.fetch_add(1, Ordering::Relaxed);
        counters.batches.fetch_add(1, Ordering::Relaxed);
        shared.largest_batch.fetch_max(size, Ordering::Relaxed);
        obs.worker_batches.inc();
        if batch.stole {
            counters.steals.fetch_add(1, Ordering::Relaxed);
            obs.worker_steals.inc();
        }
        let depth = shared.queued.fetch_sub(size, Ordering::Relaxed) - size;
        obs.queue_depth.set(depth as f64);
        // Traced batches (any sampled member) get stage marks; everyone
        // else skips every clock read below.
        let tracer = pp_obs::Tracer::global();
        let mut marks = if tracer.enabled() && batch.jobs.iter().any(|j| j.traced) {
            Some(BatchMarks::start())
        } else {
            None
        };
        let is_update = matches!(batch.jobs[0].kind, JobKind::Update { .. });
        match batch.jobs[0].kind {
            JobKind::Predict { .. } => {
                let requests: Vec<PredictRequest> = batch
                    .jobs
                    .iter()
                    .map(|j| match &j.kind {
                        JobKind::Predict { request, .. } => *request,
                        JobKind::Update { .. } => unreachable!("batches are kind-homogeneous"),
                    })
                    .collect();
                let predictions =
                    predict_chunk(&shared.model, &shared.store, &requests, marks.as_mut());
                shared.predictions.fetch_add(size as u64, Ordering::Relaxed);
                counters
                    .predictions
                    .fetch_add(size as u64, Ordering::Relaxed);
                for (job, prediction) in batch.jobs.iter().zip(predictions) {
                    if let JobKind::Predict { reply, .. } = &job.kind {
                        // A dropped receiver (client gave up) is not an
                        // engine error.
                        let _ = reply.send(prediction);
                    }
                }
            }
            JobKind::Update { .. } => {
                let requests: Vec<UpdateRequest> = batch
                    .jobs
                    .iter()
                    .map(|j| match &j.kind {
                        JobKind::Update { request, .. } => *request,
                        JobKind::Predict { .. } => unreachable!("batches are kind-homogeneous"),
                    })
                    .collect();
                update_chunk(&shared.model, &shared.store, &requests, marks.as_mut());
                shared.updates.fetch_add(size as u64, Ordering::Relaxed);
                counters.updates.fetch_add(size as u64, Ordering::Relaxed);
                for job in &batch.jobs {
                    if let JobKind::Update { reply, .. } = &job.kind {
                        let _ = reply.send(());
                    }
                }
            }
        }
        if let Some(marks) = marks {
            emit_batch_spans(tracer, worker, &batch.jobs, &marks, is_update);
        }

        // Claims release only now — after the batch's state reads and
        // write-backs — so no peer can reorder this batch's users; the
        // generation bump lets idle workers pick up what remains queued.
        for &shard in &batch.claimed_shards {
            shared.queues[shard].claimed.store(false, Ordering::Release);
        }
        shared.bump_work_gen();
    }
}

/// Emits the span tree for one served batch containing at least one traced
/// job: per traced member a `request` root (arrival → reply sent) tiled
/// exactly by its stage children, plus one `batch` span covering first
/// claim → last reply whose `batch` sequence number every member carries —
/// the link Perfetto (and the well-formedness tests) use to group a batch's
/// jobs. Runs after the replies, entirely off the reply path.
fn emit_batch_spans(
    tracer: &pp_obs::Tracer,
    worker: usize,
    jobs: &[Job],
    marks: &BatchMarks,
    is_update: bool,
) {
    use pp_obs::{Span, SpanId, Stage, TraceId};
    debug_assert!(
        tracer.enabled(),
        "span emission must be trace-gated by the caller"
    );
    let batch_id = tracer.next_batch_id();
    let worker = worker as u32;
    let done_ns = tracer.now_ns();
    let exec_ns = tracer.clock_ns(marks.exec_start);
    let assembly_ns = tracer.clock_ns(marks.assembly_done);
    let forward_ns = tracer.clock_ns(marks.forward_done);
    let writeback_ns = tracer.clock_ns(marks.writeback_done);
    let mut batch_start_ns = exec_ns;
    for job in jobs.iter().filter(|j| j.traced) {
        let user = job.kind.user_id().0;
        let trace = tracer.trace_for(user);
        let arrived_ns = tracer.clock_ns(job.arrived);
        let claimed_ns = tracer.clock_ns(job.claimed.unwrap_or(marks.exec_start));
        batch_start_ns = batch_start_ns.min(claimed_ns);
        let root = tracer.next_span_id();
        tracer.record(Span {
            trace,
            span: root,
            parent: SpanId::NONE,
            stage: Stage::Request,
            worker,
            user,
            batch: batch_id,
            start_ns: arrived_ns,
            end_ns: done_ns,
        });
        for (stage, start_ns, end_ns) in [
            (Stage::QueueWait, arrived_ns, claimed_ns),
            (Stage::CoalesceHold, claimed_ns, exec_ns),
            (Stage::BatchAssembly, exec_ns, assembly_ns),
            (Stage::ForwardPass, assembly_ns, forward_ns),
            (Stage::StateWriteBack, forward_ns, writeback_ns),
            (Stage::Reply, writeback_ns, done_ns),
        ] {
            if stage == Stage::StateWriteBack && !is_update {
                // Predict batches write no state; their `reply` child
                // starts at the forward-pass boundary instead.
                continue;
            }
            tracer.record(Span {
                trace,
                span: tracer.next_span_id(),
                parent: root,
                stage,
                worker,
                user,
                batch: batch_id,
                start_ns,
                end_ns,
            });
        }
    }
    tracer.record(Span {
        trace: TraceId(batch_id.max(1)),
        span: tracer.next_span_id(),
        parent: SpanId::NONE,
        stage: Stage::Batch,
        worker,
        user: 0,
        batch: batch_id,
        start_ns: batch_start_ns,
        end_ns: done_ns,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{DatasetKind, Tab};
    use pp_rnn::{RnnModelConfig, TaskKind};

    fn model() -> RnnModel {
        RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::tiny(),
            11,
        )
    }

    fn request(id: u64, i: i64) -> PredictRequest {
        PredictRequest {
            user_id: UserId(id),
            timestamp: 10_000 + i * 37,
            context: Context::MobileTab {
                unread_count: (i % 9) as u8,
                active_tab: Tab::ALL[(i % Tab::ALL.len() as i64) as usize],
            },
            elapsed_secs: 300 + i,
        }
    }

    #[test]
    fn scheduler_matches_single_request_path() {
        let m = model();
        let store = ShardedStateStore::new(4);
        // Give some users warm states.
        for id in 0..10u64 {
            let mut h = m.initial_state();
            for step in 0..id {
                let ctx = Context::MobileTab {
                    unread_count: 1,
                    active_tab: Tab::Home,
                };
                h = m.advance_state(
                    &h,
                    &m.featurizer().update_input(step as i64, &ctx, 60, true),
                );
            }
            store.put_state(UserId(id), &h);
        }
        let requests: Vec<PredictRequest> = (0..25).map(|i| request(i as u64 % 13, i)).collect();

        let mut batched = BatchScheduler::new(&m, &store, 8);
        let results = batched.run(requests.iter().copied());

        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            assert_eq!(request.user_id, result.user_id);
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            let single = m.predict_proba(&state, &input);
            assert!(
                (result.probability - single).abs() < 1e-6,
                "user {}: batched {} vs single {}",
                request.user_id,
                result.probability,
                single
            );
        }
        let stats = batched.stats();
        assert_eq!(stats.predictions, 25);
        assert_eq!(stats.largest_batch, 8);
        // 25 requests at max_batch 8 -> 4 forward passes, not 25.
        assert_eq!(stats.batches, 4);
    }

    #[test]
    fn updates_for_the_same_user_apply_in_order() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let ctx = Context::MobileTab {
            unread_count: 2,
            active_tab: Tab::Home,
        };
        let updates: Vec<UpdateRequest> = (0..6)
            .map(|i| UpdateRequest {
                user_id: UserId(5),
                timestamp: 1_000 * i,
                context: ctx,
                delta_t_secs: 600,
                accessed: i % 2 == 0,
            })
            .collect();
        let mut scheduler = BatchScheduler::new(&m, &store, 4);
        scheduler.apply_updates(&updates);

        // Sequential reference.
        let mut h = m.initial_state();
        for u in &updates {
            h = m.advance_state(
                &h,
                &m.featurizer()
                    .update_input(u.timestamp, &u.context, u.delta_t_secs, u.accessed),
            );
        }
        let stored = store.get_state(UserId(5)).unwrap();
        for (a, b) in stored.iter().zip(&h) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(scheduler.stats().updates, 6);
    }

    #[test]
    fn engine_serves_concurrent_clients_identically_to_single_path() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(8));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 2, 16);

        let receivers: Vec<(PredictRequest, mpsc::Receiver<Prediction>)> = (0..64)
            .map(|i| {
                let r = request(i as u64 % 7, i);
                let receiver = engine.submit(r);
                (r, receiver)
            })
            .collect();
        for (request, receiver) in receivers {
            let prediction = receiver.recv().unwrap();
            assert_eq!(prediction.user_id, request.user_id);
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            assert!((prediction.probability - m.predict_proba(&state, &input)).abs() < 1e-6);
        }
        let stats = engine.stats();
        assert_eq!(stats.predictions, 64);
        assert!(stats.batches <= 64);
        drop(engine); // clean shutdown without panics
    }

    #[test]
    fn submit_many_coalesces_and_answers_every_request() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 1, 32);
        let requests: Vec<PredictRequest> = (0..48).map(|i| request(i as u64 % 9, i)).collect();
        let receivers = engine.submit_many(&requests);
        assert_eq!(receivers.len(), requests.len());
        for (request, receiver) in requests.iter().zip(receivers) {
            let prediction = receiver.recv().unwrap();
            assert_eq!(prediction.user_id, request.user_id);
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            assert!((prediction.probability - m.predict_proba(&state, &input)).abs() < 1e-6);
        }
        let stats = engine.stats();
        assert_eq!(stats.predictions, 48);
        // 48 requests in one burst, max_batch 32 -> at most a handful of
        // forward passes, and at least one genuinely coalesced batch.
        assert!(stats.batches < 48, "batches = {}", stats.batches);
        assert!(stats.largest_batch > 1);
    }

    #[test]
    fn flush_due_serves_full_batches_and_honors_deadline() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let mut scheduler = BatchScheduler::with_max_wait(&m, &store, 4, 30);
        assert_eq!(scheduler.max_wait_secs(), Some(30));

        // 6 requests submitted at t=100: one full batch is due immediately,
        // the partial remainder is not.
        for i in 0..6 {
            scheduler.submit_at(request(i as u64, i), 100);
        }
        let served = scheduler.flush_due(100);
        assert_eq!(served.len(), 4);
        assert_eq!(scheduler.pending(), 2);

        // Before the deadline nothing more flushes…
        assert!(scheduler.flush_due(129).is_empty());
        assert_eq!(scheduler.pending(), 2);
        // …at the deadline the partial batch goes out.
        let late = scheduler.flush_due(130);
        assert_eq!(late.len(), 2);
        assert_eq!(scheduler.pending(), 0);
        let stats = scheduler.stats();
        assert_eq!(stats.predictions, 6);
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn flush_due_without_deadline_keeps_partial_batches_queued() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let mut scheduler = BatchScheduler::new(&m, &store, 4);
        for i in 0..3 {
            scheduler.submit_at(request(i as u64, i), 0);
        }
        assert!(scheduler.flush_due(i64::MAX).is_empty());
        assert_eq!(scheduler.pending(), 3);
        // An untimed submit is always due once a deadline exists.
        let mut timed = BatchScheduler::with_max_wait(&m, &store, 4, 1_000);
        timed.submit(request(9, 9));
        assert_eq!(timed.flush_due(0).len(), 1);
        // …even when queued behind a fresher timed request.
        timed.submit_at(request(1, 1), 100);
        timed.submit(request(2, 2));
        assert_eq!(timed.flush_due(150).len(), 2);
        assert_eq!(timed.pending(), 0);
    }

    #[test]
    fn flush_due_flushes_exactly_at_the_deadline_tick() {
        let m = model();
        let store = ShardedStateStore::new(2);
        // A request submitted at t with max_wait w has deadline t + w and
        // must flush when now == t + w — not one tick later.
        let mut scheduler = BatchScheduler::with_max_wait(&m, &store, 8, 25);
        scheduler.submit_at(request(1, 1), 1_000);
        assert!(scheduler.flush_due(1_024).is_empty());
        assert_eq!(
            scheduler.flush_due(1_025).len(),
            1,
            "now == deadline must flush"
        );
        assert_eq!(scheduler.pending(), 0);
        // max_wait = 0: due on the very tick it was submitted.
        let mut immediate = BatchScheduler::with_max_wait(&m, &store, 8, 0);
        immediate.submit_at(request(2, 2), 500);
        assert_eq!(immediate.flush_due(500).len(), 1);
    }

    #[test]
    fn flushed_partial_batches_preserve_submission_order() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let mut scheduler = BatchScheduler::with_max_wait(&m, &store, 4, 10);
        // Six requests with deliberately non-monotone submission stamps:
        // one full batch plus a deadline-triggered partial remainder.
        let ids = [30u64, 10, 20, 5, 40, 15];
        let stamps = [300i64, 100, 200, 50, 400, 150];
        for (&id, &stamp) in ids.iter().zip(&stamps) {
            scheduler.submit_at(request(id, id as i64), stamp);
        }
        // The partial remainder (stamps 400, 150) has oldest stamp 150,
        // so its deadline 160 has passed at now = 170 and everything is
        // due. Results must come back in *submission* order, not stamp
        // order.
        let served = scheduler.flush_due(170);
        assert_eq!(served.len(), 6);
        let served_ids: Vec<u64> = served.iter().map(|p| p.user_id.0).collect();
        assert_eq!(served_ids, ids.to_vec());
        // Same property when only the full batch is due: the first four in
        // submission order go out, the rest stay queued in order.
        let mut partial = BatchScheduler::with_max_wait(&m, &store, 4, 1_000);
        for (&id, &stamp) in ids.iter().zip(&stamps) {
            partial.submit_at(request(id, id as i64), stamp);
        }
        let first = partial.flush_due(500);
        assert_eq!(
            first.iter().map(|p| p.user_id.0).collect::<Vec<_>>(),
            ids[..4].to_vec()
        );
        assert_eq!(partial.pending(), 2);
        let rest = partial.flush_due(2_000);
        assert_eq!(
            rest.iter().map(|p| p.user_id.0).collect::<Vec<_>>(),
            ids[4..].to_vec()
        );
    }

    #[test]
    fn deadline_flush_matches_single_request_path() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let mut scheduler = BatchScheduler::with_max_wait(&m, &store, 8, 10);
        let requests: Vec<PredictRequest> = (0..3).map(|i| request(i as u64, i)).collect();
        for r in &requests {
            scheduler.submit_at(*r, 50);
        }
        let served = scheduler.flush_due(60);
        assert_eq!(served.len(), 3);
        for (request, prediction) in requests.iter().zip(&served) {
            let state = store
                .get_state(request.user_id)
                .unwrap_or_else(|| m.initial_state());
            let input = m.featurizer().predict_input(
                request.timestamp,
                &request.context,
                request.elapsed_secs,
            );
            assert!((prediction.probability - m.predict_proba(&state, &input)).abs() < 1e-6);
        }
    }

    #[test]
    fn coalescing_engine_serves_low_traffic_within_deadline() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start_with_coalesce(
            m.clone(),
            store.clone(),
            1,
            64,
            Some(std::time::Duration::from_millis(10)),
        );
        // A lone request must not wait forever for 63 peers.
        let prediction = engine.predict_blocking(request(1, 1));
        assert_eq!(prediction.user_id, UserId(1));
        assert_eq!(engine.stats().predictions, 1);
    }

    #[test]
    fn coalescing_engine_batches_a_trickle() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start_with_coalesce(
            m.clone(),
            store.clone(),
            1,
            8,
            Some(std::time::Duration::from_millis(200)),
        );
        // Submit one-by-one (the worst case for the immediate-drain engine);
        // the coalescing worker holds the batch open and serves them together.
        let receivers: Vec<_> = (0..8)
            .map(|i| engine.submit(request(i as u64, i)))
            .collect();
        for receiver in receivers {
            receiver.recv().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.predictions, 8);
        assert!(
            stats.largest_batch >= 2,
            "coalesce window should batch a trickle (largest {})",
            stats.largest_batch
        );
    }

    fn update(id: u64, i: i64) -> UpdateRequest {
        UpdateRequest {
            user_id: UserId(id),
            timestamp: 20_000 + i * 41,
            context: Context::MobileTab {
                unread_count: (i % 7) as u8,
                active_tab: Tab::ALL[(i % Tab::ALL.len() as i64) as usize],
            },
            delta_t_secs: 600 + i,
            accessed: i % 2 == 0,
        }
    }

    #[test]
    fn coalesce_deadline_is_anchored_at_job_arrival_not_observation() {
        // Regression: the flush deadline used to be re-armed at the instant
        // a worker first *observed* the queue, so a job that sat queued
        // while the worker was occupied waited its queue residence PLUS a
        // full coalesce window (worst case ~2x the configured wait). The
        // deadline is now anchored at the oldest job's arrival.
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let wait = std::time::Duration::from_millis(500);
        let engine = BatchServingEngine::start_with_coalesce(m, store, 1, 8, Some(wait));
        // Occupy the lone worker with a partial *predict* batch whose
        // coalesce window runs until t = 500ms.
        let predict = engine.submit(request(1, 1));
        std::thread::sleep(std::time::Duration::from_millis(100));
        // t = 100ms: an *update* arrives. Batches are kind-homogeneous, so
        // it cannot join the held predict batch; the worker only picks it
        // up when that batch flushes at t = 500ms — after 400ms of queue
        // residence that must count against the update's own deadline.
        let submitted = std::time::Instant::now();
        let receiver = engine.submit_update(update(2, 2));
        receiver.recv().unwrap();
        let waited = submitted.elapsed();
        // Arrival-anchored: served ~500ms after arrival. The old
        // observation-anchored deadline re-armed the full window at
        // t = 500ms and served at ~1s (a ~900ms wait).
        assert!(
            waited < std::time::Duration::from_millis(750),
            "update waited {waited:?}; coalesce deadline must anchor at arrival, not observation"
        );
        predict.recv().unwrap();
    }

    #[test]
    fn separate_submits_are_not_stranded_by_a_peer_coalescing_a_partial_batch() {
        // Regression: the old single-queue engine woke workers with
        // `notify_one`, so a submission's wakeup could be consumed by a
        // worker parked mid-coalesce over a partial batch while an idle
        // peer — which could have served the job immediately — kept
        // sleeping, stranding the job for the full coalesce window. Jobs
        // now land in per-shard queues, idle workers park on a generation
        // counter bumped with `notify_all`, and coalescing workers listen
        // on private signals.
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let wait = std::time::Duration::from_secs(2);
        let engine = BatchServingEngine::start_with_coalesce(m, store.clone(), 2, 2, Some(wait));
        let lone = UserId(0);

        // Some worker claims the lone user's shard and holds its partial
        // batch open until t = 2s. Wait for the claim rather than sleeping:
        // which worker wins it depends on scheduling.
        let j1 = engine.submit(request(lone.0, 1));
        let lone_queue = &engine.shared.queues[store.shard_index(lone)];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while lone_queue.len.load(Ordering::Acquire) > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "lone job never claimed"
            );
            std::thread::yield_now();
        }
        // The drain's `len` store (Release) follows the claimant store.
        let coalescer = lone_queue.claimant.load(Ordering::Acquire);
        let peer = 1 - coalescer;
        // Two distinct users sharing a single shard homed on the *other*
        // worker (same shard ⇒ whichever worker claims the shard sees both
        // jobs, keeping the test deterministic under stealing). Were they
        // homed on the coalescer, or in the shard it holds, it would absorb
        // the first into its own batch and leave the second to coalesce
        // alone.
        let second = (0..256)
            .map(UserId)
            .find(|&u| {
                engine.home_worker(u) == peer && store.shard_index(u) != store.shard_index(lone)
            })
            .expect("a user homed on the peer exists");
        let third = (0..256)
            .map(UserId)
            .find(|&u| u != second && store.shard_index(u) == store.shard_index(second))
            .expect("a second user in the same shard exists");

        // Two *separate* submits (two wakeup events — the pattern that
        // lost a wakeup in the old engine). They fill a max_batch = 2
        // batch and must be served immediately, long before any coalesce
        // window expires.
        let started = std::time::Instant::now();
        let j2 = engine.submit(request(second.0, 2));
        let j3 = engine.submit(request(third.0, 3));
        j2.recv_timeout(std::time::Duration::from_millis(900))
            .expect("second job stranded behind a peer's coalesce window");
        j3.recv_timeout(std::time::Duration::from_millis(900))
            .expect("third job stranded behind a peer's coalesce window");
        assert!(started.elapsed() < std::time::Duration::from_millis(1000));
        // The lone partial batch still flushes at its own (arrival-
        // anchored) deadline.
        j1.recv_timeout(std::time::Duration::from_secs(4))
            .expect("lone job must flush at its coalesce deadline");
    }

    #[test]
    fn engine_applies_updates_and_counts_them() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 2, 8);
        let updates: Vec<UpdateRequest> = (0..6).map(|i| update(7, i)).collect();
        engine.apply_updates_blocking(&updates);
        // Sequential reference: same-user updates must chain in order.
        let mut h = m.initial_state();
        for u in &updates {
            h = m.advance_state(
                &h,
                &m.featurizer()
                    .update_input(u.timestamp, &u.context, u.delta_t_secs, u.accessed),
            );
        }
        let stored = store.get_state(UserId(7)).unwrap();
        for (a, b) in stored.iter().zip(&h) {
            assert!((a - b).abs() < 1e-6);
        }
        let stats = engine.stats();
        assert_eq!(stats.updates, 6);
        assert_eq!(stats.predictions, 0);
        let worker_updates: u64 = engine.worker_stats().iter().map(|w| w.updates).sum();
        assert_eq!(worker_updates, 6);
    }

    #[test]
    fn predict_many_blocking_returns_in_request_order() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 2, 16);
        let requests: Vec<PredictRequest> = (0..20).map(|i| request(i as u64, i)).collect();
        let predictions = engine.predict_many_blocking(&requests);
        assert_eq!(predictions.len(), 20);
        for (request, prediction) in requests.iter().zip(&predictions) {
            assert_eq!(request.user_id, prediction.user_id);
        }
    }

    #[test]
    fn max_batch_one_is_the_single_request_baseline() {
        let m = model();
        let store = ShardedStateStore::new(2);
        let mut scheduler = BatchScheduler::new(&m, &store, 1);
        let results = scheduler.run((0..5).map(|i| request(i as u64, i)));
        assert_eq!(results.len(), 5);
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.largest_batch, 1);
        assert!((stats.mean_batch_size() - 1.0).abs() < 1e-12);
    }

    /// Regression test for the queue-depth race: `enqueue` used to count a
    /// burst as queued only after publishing all of it, so a worker could
    /// drain the burst's first job and subtract it from the depth first. In
    /// a debug build that subtraction overflowed and killed the worker; its
    /// clients then saw a dropped reply channel. In a release build the
    /// depth wrapped to about 1.8e19.
    ///
    /// The test forces that interleaving: it holds the second shard's queue
    /// lock so the client stalls between publishing the first job and the
    /// second, wakes the workers, and lets go only once a worker has served
    /// the first job.
    #[test]
    fn queue_depth_is_counted_before_jobs_are_published() {
        use std::time::{Duration, Instant};
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(Arc::new(model()), store.clone(), 2, 4);
        let first = request(0, 0);
        let second_user = (1..)
            .map(UserId)
            .find(|&u| store.shard_index(u) != store.shard_index(first.user_id))
            .expect("4 shards hold users apart");
        let second = PredictRequest {
            user_id: second_user,
            ..request(second_user.0, 1)
        };
        let shared = &engine.shared;
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        };
        let replies = std::thread::scope(|scope| {
            let stall = shared.queues[store.shard_index(second_user)]
                .jobs
                .lock_or_panic("test stall");
            let client = scope.spawn(|| {
                engine
                    .submit_many(&[first, second])
                    .into_iter()
                    .map(|reply| reply.recv_timeout(Duration::from_secs(10)))
                    .collect::<Vec<_>>()
            });
            let first_queue = &shared.queues[store.shard_index(first.user_id)];
            // A worker still awake from start-up may drain it at once.
            wait_for("the first job", &|| {
                first_queue.len.load(Ordering::Acquire) > 0 || engine.stats().batches > 0
            });
            shared.bump_work_gen();
            wait_for("a worker to serve the first job", &|| {
                engine.stats().batches > 0
            });
            assert!(
                shared.queued.load(Ordering::SeqCst) <= 2,
                "queue depth wrapped below zero"
            );
            drop(stall);
            client.join().expect("client thread panicked")
        });
        assert!(
            replies.iter().all(Result::is_ok),
            "requests lost to a dead worker: {replies:?}"
        );
        wait_for("the depth to drain", &|| {
            shared.queued.load(Ordering::SeqCst) == 0
        });
    }
}
