//! LRU cache of serialized query results.
//!
//! Keys encode `(dataset id + generation, query shape, params, seed)` —
//! see `query::cache_key` — so a hit is guaranteed to be byte-identical
//! to re-running the query: SWOPE queries are deterministic given the
//! dataset and the sampling seed, and replacing a dataset bumps its
//! generation, which changes every key that referenced it.
//!
//! Eviction is least-recently-used via a logical clock: each access
//! stamps the entry, and inserting past capacity removes the entry with
//! the oldest stamp (an `O(capacity)` scan — capacities are hundreds, not
//! millions). Hit/miss/eviction counters are atomic so the metrics
//! endpoint reads them without taking the map lock.
//!
//! The lock is shared with the server's *event thread*, which does every
//! untraced query's [`ResultCache::get`] as an admission stage, while
//! workers [`ResultCache::put`] what they computed. Two things follow.
//! `put`'s `O(capacity)` eviction scan runs under a lock the event
//! thread waits on, so it bounds how long a hit can stall behind a miss
//! being stored: fine at capacities in the hundreds (the default,
//! `ServerConfig::cache_capacity`, is 256); one in the hundreds of
//! thousands would want a real LRU list first. And a poisoned lock must
//! not end the process: every critical section below is a clock bump
//! plus a single map operation, so the map is structurally valid
//! wherever a panic struck, and the guard is recovered instead of
//! `expect`ed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct Entry {
    body: Arc<String>,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    clock: u64,
}

/// A bounded, thread-safe LRU map from cache key to response body.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries; `0` disables caching
    /// (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner { map: HashMap::new(), clock: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The map, whether or not a thread panicked holding it (see the
    /// module docs for why that is sound here).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `body` under `key`, evicting the least-recently-used entry
    /// if the cache is at capacity.
    pub fn put(&self, key: String, body: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(key, Entry { body, last_used: clock });
        if inner.map.len() > self.capacity {
            if let Some(oldest) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_owned())
    }

    #[test]
    fn hit_after_put_and_counters() {
        let cache = ResultCache::new(4);
        assert!(cache.get("a").is_none());
        cache.put("a".into(), body("1"));
        assert_eq!(cache.get("a").unwrap().as_str(), "1");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.put("a".into(), body("1"));
        cache.put("b".into(), body("2"));
        assert!(cache.get("a").is_some()); // refresh "a"; "b" is now oldest
        cache.put("c".into(), body("3"));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_poisoned_lock_still_gets_and_puts() {
        let cache = Arc::new(ResultCache::new(2));
        cache.put("a".into(), body("1"));
        let held = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock().unwrap();
            panic!("a worker dies holding the cache lock");
        })
        .join();
        assert!(panicked.is_err() && cache.inner.is_poisoned());
        // The event thread's lookup and a worker's store both carry on.
        assert_eq!(cache.get("a").unwrap().as_str(), "1");
        assert!(cache.get("b").is_none());
        cache.put("b".into(), body("2"));
        cache.put("c".into(), body("3"));
        assert_eq!(cache.get("c").unwrap().as_str(), "3");
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        cache.put("a".into(), body("1"));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn replacing_a_key_keeps_len_bounded() {
        let cache = ResultCache::new(2);
        cache.put("a".into(), body("1"));
        cache.put("a".into(), body("2"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a").unwrap().as_str(), "2");
    }
}
