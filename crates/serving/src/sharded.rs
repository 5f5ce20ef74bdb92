//! The hidden-state store of §9 — the paper's "real-time data store similar
//! to Redis" holding exactly one `f32` vector per user (512 bytes at
//! h = 128) — sharded for throughput-oriented serving.
//!
//! At production concurrency ("heavy traffic from millions of users") one
//! lock around the whole map becomes the bottleneck. The
//! [`ShardedStateStore`] splits users into `N` independent shards by a hash
//! of the user id, each shard one mutex over its map, eviction index and
//! traffic counters — so requests for different users proceed concurrently
//! and only same-shard accesses contend. Traffic is counted in the bytes an
//! `f32` state occupies, so the counters stay comparable with the §9 cost
//! model.

use parking_lot::Mutex;
use pp_data::schema::UserId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Running counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Number of state lookups (hits and misses).
    pub reads: u64,
    /// Number of state writes.
    pub writes: u64,
    /// Number of lookups that found a state.
    pub hits: u64,
    /// Total bytes returned by successful reads.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// States evicted to stay within the capacity bound.
    pub evictions: u64,
}

impl StoreStats {
    /// Read hit rate (1.0 when there were no reads).
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            1.0
        } else {
            self.hits as f64 / self.reads as f64
        }
    }
}

/// Which state a bounded store sacrifices when it is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Evict the least-recently-touched state (classic LRU).
    #[default]
    Lru,
    /// Evict the least-frequently-accessed state (ties broken by recency):
    /// a hot user's state survives a flood of one-shot visitors that would
    /// wash it out of a pure-LRU store. Frequencies never age, so this is
    /// suited to bounded-horizon studies rather than indefinite uptime.
    FrequencyWeighted,
}

/// The shard a user's state lives in among `num_shards`: SplitMix64
/// finalizer over the raw id, so consecutive user ids (the common
/// synthetic-workload case) spread uniformly instead of striping. Other
/// per-user sharded structures use it too, so a user lands on the same
/// shard index everywhere.
pub fn shard_of(user: UserId, num_shards: usize) -> usize {
    let mut z = user.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % num_shards as u64) as usize
}

/// Bytes an `f32` state occupies in the store.
fn state_bytes(state: &[f32]) -> u64 {
    std::mem::size_of_val(state) as u64
}

/// One stored state together with its recency and frequency stamps.
#[derive(Debug, Default)]
struct Entry {
    state: Box<[f32]>,
    /// Monotone tick of the last touch; part of the eviction-index key.
    tick: u64,
    /// Lifetime touches (puts + read hits) of this state.
    freq: u64,
}

impl Entry {
    /// The entry's eviction-index key: rank 0 under LRU (pure recency
    /// order), the access frequency under
    /// [`EvictionPolicy::FrequencyWeighted`].
    fn index_key(&self, policy: EvictionPolicy) -> (u64, u64) {
        match policy {
            EvictionPolicy::Lru => (0, self.tick),
            EvictionPolicy::FrequencyWeighted => (self.freq, self.tick),
        }
    }
}

/// Map, eviction index, bound and counters behind one lock so they can
/// never disagree.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// (rank, tick) → user id, ordered victim-first; only maintained when
    /// bounded.
    index: BTreeMap<(u64, u64), u64>,
    next_tick: u64,
    capacity: Option<usize>,
    stats: StoreStats,
}

impl Shard {
    /// Appends `user`'s state to `out` if one is stored; on a bounded shard
    /// a hit also refreshes the state's recency and frequency.
    fn get(&mut self, user: u64, policy: EvictionPolicy, out: &mut Vec<f32>) -> bool {
        self.stats.reads += 1;
        let Some(entry) = self.map.get_mut(&user) else {
            return false;
        };
        self.stats.hits += 1;
        self.stats.bytes_read += state_bytes(&entry.state);
        out.extend_from_slice(&entry.state);
        if self.capacity.is_some() {
            self.index.remove(&entry.index_key(policy));
            entry.tick = self.next_tick;
            self.next_tick += 1;
            entry.freq += 1;
            self.index.insert(entry.index_key(policy), user);
        }
        true
    }

    /// Stores `state` for `user`, then evicts victims until the shard is
    /// within its bound; returns how many states were evicted.
    fn put(&mut self, user: u64, state: &[f32], policy: EvictionPolicy) -> u64 {
        self.stats.writes += 1;
        self.stats.bytes_written += state_bytes(state);
        let entry = self.map.entry(user).or_default();
        // A fresh entry (freq 0) has no index slot yet.
        if self.capacity.is_some() && entry.freq > 0 {
            self.index.remove(&entry.index_key(policy));
        }
        if entry.state.len() == state.len() {
            entry.state.copy_from_slice(state);
        } else {
            entry.state = state.into();
        }
        entry.tick = self.next_tick;
        entry.freq += 1;
        self.next_tick += 1;
        let Some(capacity) = self.capacity else {
            return 0;
        };
        self.index.insert(entry.index_key(policy), user);
        let mut evicted = 0u64;
        while self.map.len() > capacity {
            let (_, victim) = self.index.pop_first().expect("index tracks map");
            self.map.remove(&victim);
            evicted += 1;
        }
        self.stats.evictions += evicted;
        evicted
    }
}

/// A fixed-size array of independent hidden-state shards keyed by user-id
/// hash, optionally bounded with per-shard eviction (per-user state
/// otherwise grows without bound as the user population does).
#[derive(Debug)]
pub struct ShardedStateStore {
    shards: Vec<Mutex<Shard>>,
    policy: EvictionPolicy,
}

impl ShardedStateStore {
    /// Creates an unbounded store with `num_shards` independent shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedStateStore needs at least one shard");
        Self {
            shards: (0..num_shards).map(|_| Mutex::default()).collect(),
            policy: EvictionPolicy::Lru,
        }
    }

    /// Creates a store bounded to **exactly** `total_capacity` states
    /// across `num_shards` shards: shard capacities are
    /// `total_capacity / num_shards` each, with the remainder distributed
    /// one state at a time to the lowest-indexed shards, so the per-shard
    /// bounds sum to `total_capacity` and [`ShardedStateStore::capacity`]
    /// reports it exactly. Each shard evicts its least-recently-used state
    /// beyond its bound (both reads and writes refresh recency; evictions
    /// show up in [`StoreStats::evictions`]).
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
                    Mutex::new(Shard {
                        capacity: Some(base + usize::from(shard < remainder)),
                        ..Shard::default()
                    })
                })
                .collect(),
            policy,
        }
    }

    /// Maximum number of states the store can hold (`None` when unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shards
            .iter()
            .try_fold(0usize, |acc, shard| shard.lock().capacity.map(|c| acc + c))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a user's state lives in (see [`shard_of`]).
    pub fn shard_index(&self, user: UserId) -> usize {
        shard_of(user, self.shards.len())
    }

    /// Fetches a user's hidden state, if one is stored.
    pub fn get_state(&self, user: UserId) -> Option<Vec<f32>> {
        let mut state = Vec::new();
        self.append_state(user, &mut state).then_some(state)
    }

    /// Appends a user's stored hidden state to `out`, returning whether one
    /// was stored (`out` is untouched otherwise). Batch assembly uses this
    /// to copy every state of a batch straight into one buffer.
    pub fn append_state(&self, user: UserId, out: &mut Vec<f32>) -> bool {
        let obs = crate::obs::ServingObs::global();
        obs.store_reads.inc();
        let shard = &self.shards[self.shard_index(user)];
        let hit = shard.lock().get(user.0, self.policy, out);
        if hit {
            obs.store_hits.inc();
        }
        hit
    }

    /// Stores a user's hidden state, replacing any previous one. When the
    /// user's shard is full and the user is new, the shard's eviction
    /// victim goes first.
    pub fn put_state(&self, user: UserId, state: &[f32]) {
        let obs = crate::obs::ServingObs::global();
        obs.store_writes.inc();
        let shard = &self.shards[self.shard_index(user)];
        let evicted = shard.lock().put(user.0, state, self.policy);
        if evicted > 0 {
            obs.store_evictions.add(evicted);
        }
    }

    /// Whether a state is currently stored for `user`, without counting as
    /// store traffic or refreshing eviction recency/frequency — for
    /// measurement harnesses probing residency (e.g. the cold-start-regret
    /// eviction study) without perturbing it.
    pub fn contains_state(&self, user: UserId) -> bool {
        let shard = &self.shards[self.shard_index(user)];
        shard.lock().map.contains_key(&user.0)
    }

    /// Total number of stored states across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().map.len()).sum()
    }

    /// Returns `true` when no shard holds any state.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.lock().map.is_empty())
    }

    /// Total bytes stored across all shards.
    pub fn stored_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard
                    .map
                    .values()
                    .map(|e| state_bytes(&e.state))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Aggregated traffic counters across all shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats;
            total.reads += s.reads;
            total.writes += s.writes;
            total.hits += s.hits;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.evictions += s.evictions;
        }
        total
    }

    /// Resets the traffic counters of every shard (stored data is kept).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().stats = StoreStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn shard_capacities(store: &ShardedStateStore) -> Vec<Option<usize>> {
        store.shards.iter().map(|s| s.lock().capacity).collect()
    }

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
        assert!(store.is_empty());
        // Paper-scale states: 128 dimensions move 512 bytes each.
        store.put_state(UserId(1), &[1.0; 128]);
        store.put_state(UserId(2), &[2.0; 128]);
        let _ = store.get_state(UserId(1));
        let _ = store.get_state(UserId(3)); // miss
        let stats = store.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes_written, 2 * 512);
        assert_eq!(stats.bytes_read, 512);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(store.stored_bytes(), 2 * 512);
        store.reset_stats();
        assert_eq!(store.stats(), StoreStats::default());
        assert_eq!(store.len(), 2);
        assert_eq!(store.stored_bytes(), 2 * 512);
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = ShardedStateStore::new(1);
        assert!(store.is_empty());
        store.put_state(UserId(1), &[0.5, -1.25, 3.75, 0.0]);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get_state(UserId(1)).unwrap(),
            vec![0.5, -1.25, 3.75, 0.0]
        );
        assert!(store.get_state(UserId(2)).is_none());
        let stats = store.stats();
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.bytes_written, 16);
        assert_eq!(stats.bytes_read, 16);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        store.reset_stats();
        assert_eq!(store.stats().reads, 0);
        assert_eq!(store.stored_bytes(), 16);
    }

    #[test]
    fn paper_scale_state_is_512_bytes() {
        let store = ShardedStateStore::new(1);
        store.put_state(UserId(1), &[0.1; 128]);
        assert_eq!(store.stored_bytes(), 512);
        assert_eq!(store.get_state(UserId(1)).unwrap().len(), 128);
        let stats = store.stats();
        assert_eq!(stats.bytes_written, 512);
        assert_eq!(stats.bytes_read, 512);
    }

    #[test]
    fn bounded_store_never_exceeds_capacity() {
        let store = ShardedStateStore::with_capacity(1, 8);
        for id in 0..100u64 {
            store.put_state(UserId(id), &[0.0; 4]);
            assert!(store.len() <= 8, "len {} exceeds capacity", store.len());
        }
        assert_eq!(store.len(), 8);
        assert_eq!(store.stats().evictions, 92);
        // The survivors are exactly the 8 most recently written users.
        for id in 92..100u64 {
            assert!(store.get_state(UserId(id)).is_some(), "user {id} missing");
        }
    }

    #[test]
    #[should_panic(expected = "must be at least num_shards")]
    fn zero_capacity_panics() {
        let _ = ShardedStateStore::with_capacity(1, 0);
    }

    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let store = ShardedStateStore::with_capacity(1, 3);
        assert_eq!(store.capacity(), Some(3));
        for id in 1..=3u64 {
            store.put_state(UserId(id), &[id as f32]);
        }
        // Reading user 1 makes user 2 the least recently used.
        assert!(store.get_state(UserId(1)).is_some());
        store.put_state(UserId(4), &[4.0]);
        assert_eq!(store.len(), 3);
        assert!(store.get_state(UserId(2)).is_none(), "LRU user is evicted");
        for id in [1u64, 3, 4] {
            assert!(store.get_state(UserId(id)).is_some(), "user {id} kept");
        }
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn bounded_store_replacement_does_not_evict() {
        let store = ShardedStateStore::with_capacity(1, 2);
        store.put_state(UserId(1), &[1.0]);
        store.put_state(UserId(2), &[2.0]);
        // Overwriting a stored user keeps the store at capacity.
        store.put_state(UserId(1), &[11.0, 12.0]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(store.get_state(UserId(1)).unwrap(), vec![11.0, 12.0]);
    }

    #[test]
    fn capacity_sums_exactly_even_when_shards_do_not_divide_it() {
        // Regression: div_ceil gave every shard ceil(total/shards), so
        // with_capacity(4, 10) admitted 12 states and reported capacity 12.
        let store = ShardedStateStore::with_capacity(4, 10);
        assert_eq!(store.capacity(), Some(10));
        assert_eq!(
            shard_capacities(&store),
            vec![Some(3), Some(3), Some(2), Some(2)]
        );
        // However traffic hashes, the population can never exceed the bound.
        for id in 0..5_000u64 {
            store.put_state(UserId(id), &[id as f32; 4]);
        }
        assert!(store.len() <= 10, "len {} exceeds capacity 10", store.len());
        // An exactly-divisible split stays uniform.
        let even = ShardedStateStore::with_capacity(8, 64);
        assert_eq!(even.capacity(), Some(64));
        assert_eq!(shard_capacities(&even), vec![Some(8); 8]);
    }

    #[test]
    #[should_panic(expected = "must be at least num_shards")]
    fn capacity_below_shard_count_panics() {
        let _ = ShardedStateStore::with_capacity(8, 7);
    }

    #[test]
    fn frequency_ties_break_by_recency_and_puts_count_as_touches() {
        let store =
            ShardedStateStore::with_capacity_and_policy(1, 2, EvictionPolicy::FrequencyWeighted);
        let (a, b, c, d) = (UserId(1), UserId(2), UserId(3), UserId(4));
        store.put_state(a, &[1.0]); // freq 1, older
        store.put_state(b, &[2.0]); // freq 1, newer
        store.put_state(c, &[3.0]); // evicts a (tie → oldest)
        assert!(store.get_state(a).is_none());
        assert!(store.get_state(b).is_some()); // freq 2
                                               // Re-putting c bumps its frequency to 2; inserting d (freq 1)
                                               // cannot displace either freq-2 state, so d is itself the victim.
        store.put_state(c, &[3.0]);
        store.put_state(d, &[4.0]);
        assert_eq!(store.len(), 2);
        assert!(store.get_state(d).is_none());
        assert!(store.get_state(b).is_some());
        assert!(store.get_state(c).is_some());
    }

    #[test]
    fn frequency_weighted_store_propagates_policy_to_every_shard() {
        // One hot user per shard, read well above any newcomer's frequency,
        // then a scan of one-shot users: each newcomer has frequency 1, so
        // under frequency weighting they evict each other while every hot
        // state survives; LRU washes all of them out.
        let hot_survivors = |policy| {
            let store = ShardedStateStore::with_capacity_and_policy(4, 8, policy);
            let hot: Vec<UserId> = (0..4)
                .map(|shard| {
                    (0u64..)
                        .map(UserId)
                        .find(|&u| store.shard_index(u) == shard)
                        .unwrap()
                })
                .collect();
            for &user in &hot {
                store.put_state(user, &[1.0]);
                for _ in 0..10 {
                    assert!(store.get_state(user).is_some());
                }
            }
            for id in 1_000..1_500u64 {
                store.put_state(UserId(id), &[0.0]);
            }
            assert_eq!(store.len(), 8);
            hot.into_iter().filter(|&u| store.contains_state(u)).count()
        };
        assert_eq!(hot_survivors(EvictionPolicy::FrequencyWeighted), 4);
        assert_eq!(hot_survivors(EvictionPolicy::Lru), 0);
    }

    #[test]
    fn frequency_weighted_store_keeps_hot_keys_under_scan_pressure() {
        let hot = UserId(0);
        let store =
            ShardedStateStore::with_capacity_and_policy(1, 4, EvictionPolicy::FrequencyWeighted);
        store.put_state(hot, &[1.0]);
        for _ in 0..10 {
            assert!(store.get_state(hot).is_some());
        }
        // A scan of one-shot users floods the store; each newcomer has
        // frequency 1, so they evict each other while the hot user survives.
        for id in 1..=50u64 {
            store.put_state(UserId(id), &[0.0]);
        }
        assert_eq!(store.len(), 4);
        assert!(
            store.get_state(hot).is_some(),
            "frequency-weighted eviction must keep the hot user"
        );
        // The same scan against an LRU store washes the hot user out.
        let lru = ShardedStateStore::with_capacity(1, 4);
        lru.put_state(hot, &[1.0]);
        for _ in 0..10 {
            assert!(lru.get_state(hot).is_some());
        }
        for id in 1..=50u64 {
            lru.put_state(UserId(id), &[0.0]);
        }
        assert!(lru.get_state(hot).is_none(), "LRU evicts the hot user");
    }

    #[test]
    fn contains_state_does_not_count_as_traffic_or_refresh_recency() {
        let store = ShardedStateStore::with_capacity(1, 2);
        store.put_state(UserId(1), &[1.0]);
        store.put_state(UserId(2), &[2.0]);
        let before = store.stats();
        assert!(store.contains_state(UserId(1)));
        assert!(!store.contains_state(UserId(99)));
        assert_eq!(store.stats(), before);
        // contains_state must not have refreshed user 1: it is still the
        // LRU victim when user 3 arrives.
        store.put_state(UserId(3), &[3.0]);
        assert!(!store.contains_state(UserId(1)));
        assert!(store.contains_state(UserId(2)));
    }

    #[test]
    fn bounded_store_caps_population_and_counts_evictions() {
        let store = ShardedStateStore::with_capacity(4, 64);
        assert_eq!(store.capacity(), Some(64));
        assert_eq!(ShardedStateStore::new(4).capacity(), None);
        for id in 0..1_000u64 {
            store.put_state(UserId(id), &[id as f32; 8]);
            assert!(store.len() <= 64, "len {} exceeds capacity", store.len());
        }
        // Each shard holds at most 64/4 = 16 states.
        for shard in &store.shards {
            assert!(shard.lock().map.len() <= 16);
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
        let stats = store.stats();
        assert_eq!(stats.writes, 8 * 200);
        assert_eq!(stats.hits, 8 * 200);
        // Spot-check cross-thread isolation after the fact.
        assert_eq!(store.get_state(UserId(3_007)).unwrap(), vec![3_007.0f32; 8]);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        // One shard, so every thread contends on the same lock.
        let store = Arc::new(ShardedStateStore::new(1));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let id = UserId(t * 1_000 + i);
                    store.put_state(id, &[0.0; 2]);
                    let _ = store.get_state(id);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
        assert_eq!(store.stats().writes, 400);
        assert_eq!(store.stats().hits, 400);
    }
}
