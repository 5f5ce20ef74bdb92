//! Batched request serving: coalesce concurrent session-start requests
//! into one GRU/MLP forward pass per batch.
//!
//! At production request rates many session starts are in flight at once,
//! so the serving engine drains the arrival queues into batches, assembles
//! each batch's states and inputs into one contiguous `B × d` buffer apiece
//! and serves it with **one graph-free forward pass**
//! ([`RnnModel::predict_proba_rows`] / [`RnnModel::advance_state_rows`]).
//! A batch of one runs the same kernel: there is no separate single-request
//! path.
//!
//! [`BatchServingEngine`] is the one batcher: clients submit requests from
//! any thread, worker threads drain per-shard queues of a
//! [`ShardedStateStore`] in batches of up to `max_batch` and reply over
//! per-request channels.

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

/// Stage boundaries of one traced batch execution, on the wall clock the
/// tracer translates to its own epoch. Initialized to the execution start
/// and advanced by `predict_chunk` / `update_chunk` as stages complete, so
/// untouched marks yield zero-length (never negative) stage spans.
#[derive(Debug, Clone, Copy)]
struct BatchMarks {
    /// When the worker finished gathering and began executing.
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

/// Serves one chunk of predictions; the caller accounts for batching
/// statistics. The chunk's states and inputs are assembled into one
/// contiguous buffer each and served by one graph-free forward pass,
/// whatever the chunk's size — `max_batch = 1` runs the same kernel one row
/// at a time. `marks` (traced batches only) receives the stage boundaries
/// for span emission.
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
    /// When the job entered the queue (the start of its trace spans).
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
    /// One queue per state-store shard (`queues.len() == store.num_shards()`).
    queues: Vec<ShardQueue>,
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
        self.worker_counters.len()
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
        assert!(workers > 0, "need at least one worker");
        assert!(max_batch > 0, "max_batch must be positive");
        let num_shards = store.num_shards();
        let shared = Arc::new(EngineShared {
            model,
            store,
            max_batch,
            queues: (0..num_shards).map(|_| ShardQueue::default()).collect(),
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

    /// Routes jobs to their home-shard queues and wakes idle workers: the
    /// generation is bumped with `notify_all`, so no idle worker can miss
    /// work because a busy peer consumed the only wakeup.
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
        for job in jobs {
            let queue = &shared.queues[shared.store.shard_index(job.kind.user_id())];
            let mut q = queue.jobs.lock_or_panic("shard queue");
            q.push_back(job);
            queue.len.store(q.len(), Ordering::Release);
        }
        shared.bump_work_gen();
    }

    /// Submits requests in one enqueue pass; each returned receiver yields
    /// its prediction once a worker has served its batch. Submitting a
    /// burst of concurrent session starts at once is what lets workers
    /// coalesce full batches instead of draining a trickle.
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
        // Workers drain every queued job before exiting, so in-flight
        // receivers still get their replies.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Advances and re-stores one chunk of session-close updates; callers
/// guarantee the chunk holds each user at most once. `marks` (traced
/// batches only) receives the stage boundaries for span emission.
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

/// A gathered batch: homogeneous-kind jobs plus the shard claims that stay
/// held until the batch's state reads and write-backs complete.
struct GatheredBatch {
    jobs: Vec<Job>,
    claimed_shards: Vec<usize>,
    stole: bool,
}

/// Scans shard queues — the worker's own shards first, then everyone
/// else's (work stealing) — claiming each non-empty unclaimed queue and
/// draining a FIFO prefix into one batch. A queue's prefix stops at a
/// kind change or (for updates) a user already in the batch, so per-user
/// ordering and same-user-once-per-update-batch both hold.
fn gather(shared: &EngineShared, worker: usize) -> GatheredBatch {
    let mut batch = GatheredBatch {
        jobs: Vec::new(),
        claimed_shards: Vec::new(),
        stole: false,
    };
    let mut seen_users = HashSet::new();
    let num_shards = shared.queues.len();
    let workers = shared.num_workers();
    let own = (worker..num_shards).step_by(workers);
    let foreign = (0..num_shards).filter(|s| s % workers != worker);
    for shard in own.chain(foreign) {
        if batch.jobs.len() >= shared.max_batch {
            break;
        }
        let queue = &shared.queues[shard];
        if queue.len.load(Ordering::Acquire) == 0 {
            continue;
        }
        // Acquire pairs with the Release that frees a claim after its
        // holder's write-backs, so this batch reads the states that batch
        // wrote.
        if queue
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
            .is_err()
        {
            continue;
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
        if drained == 0 {
            queue.claimed.store(false, Ordering::Release);
        } else {
            batch.claimed_shards.push(shard);
            if shard % workers != worker {
                batch.stole = true;
            }
        }
    }
    batch
}

fn worker_loop(shared: &EngineShared, worker: usize) {
    let obs = crate::obs::ServingObs::global();
    let counters = &shared.worker_counters[worker];
    loop {
        // Snapshot the work generation BEFORE scanning: an enqueue racing
        // with the scan moves the generation, so the park below falls
        // through instead of sleeping on work it never saw.
        let gen_before = *shared.work_gen.lock_or_panic("work generation");
        let batch = gather(shared, worker);

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
        let before = shared.queued.fetch_sub(size, Ordering::Relaxed);
        // `enqueue` counts a burst before publishing it, so `before >= size`;
        // an ordering bug fails here in debug builds instead of publishing a
        // wrapped depth of about 1.8e19 in release builds.
        debug_assert!(before >= size, "queue depth {before} below batch {size}");
        let depth = before.saturating_sub(size);
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
    fn engine_serves_concurrent_clients_identically_to_single_path() {
        let m = Arc::new(model());
        let store = Arc::new(ShardedStateStore::new(8));
        let engine = BatchServingEngine::start(m.clone(), store.clone(), 2, 16);

        let receivers: Vec<(PredictRequest, mpsc::Receiver<Prediction>)> = (0..64)
            .map(|i| {
                let r = request(i as u64 % 7, i);
                let receiver = engine.submit_many(&[r]).remove(0);
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

    /// One worker blocks while it holds a shard claim; its idle peer must
    /// still serve every job on the other shards, its own and the blocked
    /// worker's alike, instead of leaving them to the blocked owner.
    #[test]
    fn an_idle_worker_serves_work_while_its_peer_is_blocked() {
        use std::time::{Duration, Instant};
        let store = Arc::new(ShardedStateStore::new(4));
        let engine = BatchServingEngine::start(Arc::new(model()), store.clone(), 2, 4);
        let blocked = &engine.shared.queues[0];
        // Shard 0 looks non-empty, so a worker claims it and then blocks on
        // the queue lock this test holds.
        let stall = blocked.jobs.lock_or_panic("test stall");
        blocked.len.store(1, Ordering::Release);
        engine.shared.bump_work_gen();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !blocked.claimed.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "no worker claimed shard 0");
            std::thread::yield_now();
        }
        let users = (0..)
            .map(UserId)
            .filter(|&u| store.shard_index(u) != 0)
            .take(8);
        for (i, user) in users.enumerate() {
            let reply = engine.submit_many(&[request(user.0, i as i64)]).remove(0);
            let prediction = reply
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| {
                    panic!(
                        "job on shard {} stranded behind the blocked worker: {e}",
                        store.shard_index(user)
                    )
                });
            assert_eq!(prediction.user_id, user);
        }
        drop(stall);
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
        let store = Arc::new(ShardedStateStore::new(2));
        let engine = BatchServingEngine::start(Arc::new(model()), store, 1, 1);
        let requests: Vec<PredictRequest> = (0..5).map(|i| request(i as u64, i)).collect();
        assert_eq!(engine.predict_many_blocking(&requests).len(), 5);
        let stats = engine.stats();
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
