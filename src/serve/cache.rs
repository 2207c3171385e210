//! A small LRU cache for hot query nodes.
//!
//! Serving traffic is typically Zipf-shaped — a few hub nodes absorb most
//! queries — so the server keeps recently answered top-k results, shared
//! by every connection, and skips the scan entirely on a repeat. The
//! cache is not thread-safe itself: the server holds it behind a mutex,
//! locked only for one lookup or insert. Results are pure functions of the
//! released store (which is immutable for the server's lifetime), so
//! cached answers can never go stale; capacity is the only eviction
//! reason.
//!
//! Implementation: a `HashMap` from key to `(value, tick)` plus a
//! `BTreeMap` from tick to key as the recency order. Every touch
//! re-stamps the entry with a fresh monotonic tick; eviction pops the
//! smallest tick. Both sides are `O(log capacity)` per operation with no
//! unsafe code and no dependencies.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A least-recently-used map with a fixed capacity.
///
/// # Examples
/// ```
/// use advsgm::serve::cache::LruCache;
///
/// let mut cache: LruCache<u32, &str> = LruCache::new(2);
/// cache.insert(1, "one");
/// cache.insert(2, "two");
/// cache.get(&1); // 1 is now the most recent
/// cache.insert(3, "three"); // evicts 2
/// assert!(cache.get(&2).is_none());
/// assert_eq!(cache.get(&1), Some(&"one"));
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`0` disables
    /// caching: every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(4096)),
            order: BTreeMap::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            None => None,
            Some((value, stamp)) => {
                self.order.remove(stamp);
                self.order.insert(tick, key.clone());
                *stamp = tick;
                Some(value)
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((_, old)) = self.map.remove(&key) {
            self.order.remove(&old);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&oldest) {
                    self.map.remove(&victim);
                }
            }
        }
        self.order.insert(self.tick, key.clone());
        self.map.insert(key, (value, self.tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        for i in 0..3 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.get(&0), Some(&0)); // refresh 0
        c.insert(3, 30); // evicts 1 (oldest untouched)
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&2));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut c = LruCache::new(8);
        for i in 0..10_000u64 {
            c.insert(i % 37, i);
            assert!(c.len() <= 8);
        }
        // The most recent insert must be present.
        assert!(c.get(&(9_999 % 37)).is_some());
    }
}
