//! A sharded hidden-state store for throughput-oriented serving.
//!
//! The single [`KvStore`] of §9 serializes every
//! access through one `RwLock`'d map; at production concurrency ("heavy
//! traffic from millions of users") that lock becomes the bottleneck. The
//! [`ShardedStateStore`] splits the key space into `N` independent shards
//! keyed by a hash of the user id, each shard its own instrumented
//! `KvStore` with interior mutability — so requests for different users
//! proceed concurrently and only same-shard writers contend.
//!
//! The store keeps the same `hidden/<user-id>` key format and f32
//! encoding as the single-store pipeline, so the per-shard traffic
//! counters stay comparable with the §9 cost model.

use crate::kv_store::{
    append_decoded_state_f32, decode_state_f32, encode_state_f32, EvictionPolicy, KvStore,
    StoreStats,
};
use pp_data::schema::UserId;

/// A fixed-size array of independent [`KvStore`] shards keyed by user-id
/// hash.
#[derive(Debug)]
pub struct ShardedStateStore {
    shards: Vec<KvStore>,
}

impl ShardedStateStore {
    /// Creates a store with `num_shards` independent shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedStateStore needs at least one shard");
        Self {
            shards: (0..num_shards).map(|_| KvStore::new()).collect(),
        }
    }

    /// Creates a store bounded to **exactly** `total_capacity` states
    /// across `num_shards` shards: shard capacities are
    /// `total_capacity / num_shards` each, with the remainder distributed
    /// one state at a time to the lowest-indexed shards, so the per-shard
    /// bounds sum to `total_capacity` and [`ShardedStateStore::capacity`]
    /// reports it exactly. Each shard evicts its least-recently-used state
    /// beyond its bound (evictions show up in [`StoreStats::evictions`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `total_capacity < num_shards`
    /// (every shard must be able to hold at least one state).
    pub fn with_capacity(num_shards: usize, total_capacity: usize) -> Self {
        Self::with_capacity_and_policy(num_shards, total_capacity, EvictionPolicy::Lru)
    }

    /// Like [`ShardedStateStore::with_capacity`], with an explicit
    /// per-shard [`EvictionPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `total_capacity < num_shards`.
    pub fn with_capacity_and_policy(
        num_shards: usize,
        total_capacity: usize,
        policy: EvictionPolicy,
    ) -> Self {
        assert!(num_shards > 0, "ShardedStateStore needs at least one shard");
        assert!(
            total_capacity >= num_shards,
            "total_capacity ({total_capacity}) must be at least num_shards ({num_shards}) \
             so every shard can hold a state"
        );
        let base = total_capacity / num_shards;
        let remainder = total_capacity % num_shards;
        Self {
            shards: (0..num_shards)
                .map(|shard| {
                    let capacity = base + usize::from(shard < remainder);
                    KvStore::with_capacity_and_policy(capacity, policy)
                })
                .collect(),
        }
    }

    /// Maximum number of states the store can hold (`None` when unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shards
            .iter()
            .map(KvStore::capacity)
            .try_fold(0usize, |acc, c| c.map(|c| acc + c))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a user's state lives in. SplitMix64 finalizer over the raw
    /// id: consecutive user ids (the common synthetic-workload case) spread
    /// uniformly instead of striping.
    pub fn shard_index(&self, user: UserId) -> usize {
        let mut z = user.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard (for per-shard instrumentation).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_shards()`.
    pub fn shard(&self, index: usize) -> &KvStore {
        &self.shards[index]
    }

    fn key(user: UserId) -> String {
        format!("hidden/{user}")
    }

    /// Fetches a user's hidden state, if one is stored.
    pub fn get_state(&self, user: UserId) -> Option<Vec<f32>> {
        let mut state = Vec::new();
        self.append_state(user, &mut state).then_some(state)
    }

    /// Appends a user's stored hidden state to `out`, returning whether one
    /// was stored (`out` is untouched otherwise). Batch assembly uses this
    /// to decode every state of a batch straight into one buffer.
    pub fn append_state(&self, user: UserId, out: &mut Vec<f32>) -> bool {
        let obs = crate::obs::ServingObs::global();
        obs.store_reads.inc();
        let Some(bytes) = self.shards[self.shard_index(user)].get(&Self::key(user)) else {
            return false;
        };
        append_decoded_state_f32(&bytes, out);
        obs.store_hits.inc();
        true
    }

    /// Stores a user's hidden state, replacing any previous one.
    pub fn put_state(&self, user: UserId, state: &[f32]) {
        crate::obs::ServingObs::global().store_writes.inc();
        self.shards[self.shard_index(user)].put(Self::key(user), encode_state_f32(state));
    }

    /// Removes a user's hidden state, returning it if present.
    pub fn remove_state(&self, user: UserId) -> Option<Vec<f32>> {
        self.shards[self.shard_index(user)]
            .remove(&Self::key(user))
            .map(|bytes| decode_state_f32(&bytes))
    }

    /// Whether a state is currently stored for `user`, without counting as
    /// store traffic or refreshing eviction recency/frequency — for
    /// measurement harnesses probing residency (e.g. the cold-start-regret
    /// eviction study) without perturbing it.
    pub fn contains_state(&self, user: UserId) -> bool {
        self.shards[self.shard_index(user)].contains_key(&Self::key(user))
    }

    /// Total number of stored states across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(KvStore::len).sum()
    }

    /// Returns `true` when no shard holds any state.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(KvStore::is_empty)
    }

    /// Total bytes stored across all shards.
    pub fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(KvStore::stored_bytes).sum()
    }

    /// Aggregated traffic counters across all shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.hits += s.hits;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.evictions += s.evictions;
        }
        total
    }

    /// Per-shard traffic counters (index = shard index).
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(KvStore::stats).collect()
    }

    /// Resets the traffic counters of every shard (stored data is kept).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_after_put_roundtrips_across_shards() {
        let store = ShardedStateStore::new(8);
        for id in 0..200u64 {
            let state: Vec<f32> = (0..16).map(|d| (id * 31 + d) as f32 * 0.25).collect();
            store.put_state(UserId(id), &state);
        }
        assert_eq!(store.len(), 200);
        for id in 0..200u64 {
            let expected: Vec<f32> = (0..16).map(|d| (id * 31 + d) as f32 * 0.25).collect();
            assert_eq!(store.get_state(UserId(id)).unwrap(), expected, "user {id}");
        }
        assert!(store.get_state(UserId(10_000)).is_none());
    }

    #[test]
    fn append_state_extends_the_buffer_only_on_a_hit() {
        let store = ShardedStateStore::new(4);
        store.put_state(UserId(1), &[1.0, 2.0]);
        let mut batch = vec![9.0];
        assert!(store.append_state(UserId(1), &mut batch));
        assert!(!store.append_state(UserId(2), &mut batch));
        assert_eq!(batch, vec![9.0, 1.0, 2.0]);
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let store = ShardedStateStore::new(16);
        let mut counts = [0usize; 16];
        for id in 0..4096u64 {
            let shard = store.shard_index(UserId(id));
            assert_eq!(shard, store.shard_index(UserId(id)), "stable for {id}");
            counts[shard] += 1;
        }
        // Perfectly uniform would be 256 per shard; allow a generous band.
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (128..=384).contains(&count),
                "shard {shard} holds {count} of 4096 users"
            );
        }
    }

    #[test]
    fn stats_aggregate_over_shards() {
        let store = ShardedStateStore::new(4);
        store.put_state(UserId(1), &[1.0; 8]);
        store.put_state(UserId(2), &[2.0; 8]);
        let _ = store.get_state(UserId(1));
        let _ = store.get_state(UserId(3)); // miss
        let stats = store.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(store.stored_bytes(), 2 * 8 * 4);
        assert_eq!(store.shard_stats().len(), 4);
        store.reset_stats();
        assert_eq!(store.stats().reads, 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_only_touches_the_owning_user() {
        let store = ShardedStateStore::new(3);
        store.put_state(UserId(7), &[7.0; 4]);
        store.put_state(UserId(8), &[8.0; 4]);
        assert_eq!(store.remove_state(UserId(7)).unwrap(), vec![7.0; 4]);
        assert!(store.get_state(UserId(7)).is_none());
        assert_eq!(store.get_state(UserId(8)).unwrap(), vec![8.0; 4]);
    }

    #[test]
    fn capacity_sums_exactly_even_when_shards_do_not_divide_it() {
        // Regression: div_ceil gave every shard ceil(total/shards), so
        // with_capacity(4, 10) admitted 12 states and reported capacity 12.
        let store = ShardedStateStore::with_capacity(4, 10);
        assert_eq!(store.capacity(), Some(10));
        let shard_caps: Vec<usize> = (0..store.num_shards())
            .map(|s| store.shard(s).capacity().unwrap())
            .collect();
        assert_eq!(shard_caps.iter().sum::<usize>(), 10);
        assert_eq!(shard_caps, vec![3, 3, 2, 2]);
        // However traffic hashes, the population can never exceed the bound.
        for id in 0..5_000u64 {
            store.put_state(UserId(id), &[id as f32; 4]);
        }
        assert!(store.len() <= 10, "len {} exceeds capacity 10", store.len());
        // An exactly-divisible split stays uniform.
        let even = ShardedStateStore::with_capacity(8, 64);
        assert_eq!(even.capacity(), Some(64));
        for s in 0..8 {
            assert_eq!(even.shard(s).capacity(), Some(8));
        }
    }

    #[test]
    #[should_panic(expected = "must be at least num_shards")]
    fn capacity_below_shard_count_panics() {
        let _ = ShardedStateStore::with_capacity(8, 7);
    }

    #[test]
    fn frequency_weighted_store_propagates_policy_to_every_shard() {
        let store =
            ShardedStateStore::with_capacity_and_policy(4, 10, EvictionPolicy::FrequencyWeighted);
        assert_eq!(store.capacity(), Some(10));
        for s in 0..store.num_shards() {
            assert_eq!(
                store.shard(s).eviction_policy(),
                EvictionPolicy::FrequencyWeighted
            );
        }
    }

    #[test]
    fn bounded_store_caps_population_and_counts_evictions() {
        let store = ShardedStateStore::with_capacity(4, 64);
        assert_eq!(store.capacity(), Some(64));
        assert_eq!(ShardedStateStore::new(4).capacity(), None);
        for id in 0..1_000u64 {
            store.put_state(UserId(id), &[id as f32; 8]);
        }
        // Each shard holds at most 64/4 = 16 states.
        assert!(store.len() <= 64, "len {} exceeds capacity", store.len());
        for shard in 0..store.num_shards() {
            assert!(store.shard(shard).len() <= 16);
        }
        let stats = store.stats();
        assert_eq!(stats.writes, 1_000);
        assert_eq!(stats.evictions, 1_000 - store.len() as u64);
        // Recently written users survive; a long-evicted one is gone.
        assert!(store.get_state(UserId(999)).is_some());
        assert!(store.get_state(UserId(0)).is_none());
    }

    #[test]
    fn concurrent_writers_on_distinct_users_do_not_bleed() {
        let store = Arc::new(ShardedStateStore::new(8));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let id = UserId(t * 1_000 + i);
                    let state = vec![(t * 1_000 + i) as f32; 8];
                    store.put_state(id, &state);
                    assert_eq!(store.get_state(id).unwrap(), state);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 200);
        // Spot-check cross-thread isolation after the fact.
        assert_eq!(store.get_state(UserId(3_007)).unwrap(), vec![3_007.0f32; 8]);
    }
}
