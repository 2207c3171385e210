//! A small SIEVE cache for hot query nodes.
//!
//! Serving traffic is Zipf-shaped, so the server keeps answered top-k
//! results, shared by every connection, behind a mutex locked only for one
//! lookup or insert. Results are pure functions of the released store,
//! immutable while served, so capacity is the only eviction reason.
//!
//! Eviction is SIEVE (Zhang et al., "SIEVE is Simpler than LRU", NSDI
//! 2024). A hit only sets the entry's visited bit. To make room, a hand
//! walks from where it stopped toward the newest entry, wrapping to the
//! oldest, clears the bits it passes and evicts the first unvisited entry,
//! so keys asked for once leave before keys asked for again.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map with a fixed capacity that evicts by SIEVE.
///
/// # Examples
/// ```
/// use advsgm::serve::cache::SieveCache;
///
/// let mut cache: SieveCache<u32, &str> = SieveCache::new(2);
/// cache.insert(1, "one");
/// cache.insert(2, "two");
/// cache.get(&1); // 1 is now visited
/// cache.insert(3, "three"); // evicts 2, the oldest unvisited entry
/// assert!(cache.get(&2).is_none());
/// assert_eq!(cache.get(&1), Some(&"one"));
/// ```
#[derive(Debug)]
pub struct SieveCache<K, V> {
    capacity: usize,
    /// Key to `(value, visited)`.
    map: HashMap<K, (V, bool)>,
    /// Insertion tick to key: the list, oldest first.
    order: BTreeMap<u64, K>,
    /// The tick the next eviction's walk starts at (`None`: the oldest).
    hand: Option<u64>,
}

impl<K: Eq + Hash + Clone, V> SieveCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`0` disables
    /// caching: every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            order: BTreeMap::new(),
            hand: None,
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

    /// Looks up `key`, marking it visited on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let (value, visited) = self.map.get_mut(key)?;
        *visited = true;
        Some(value)
    }

    /// Inserts `key` as the newest entry, evicting one when full; a key
    /// already present takes the new value and counts as visited.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(entry) = self.map.get_mut(&key) {
            *entry = (value, true);
        } else if self.capacity > 0 {
            if self.map.len() >= self.capacity {
                self.evict();
            }
            let tick = self.order.last_key_value().map_or(0, |(&t, _)| t + 1);
            self.order.insert(tick, key.clone());
            self.map.insert(key, (value, false));
        }
    }

    /// Evicts the first unvisited entry from the hand on, clearing the
    /// bits it passes, and leaves the hand on the next newer entry.
    fn evict(&mut self) {
        let (map, hand) = (&mut self.map, self.hand.unwrap_or(0));
        let walk = self.order.range(hand..).chain(self.order.range(..hand));
        let (&tick, _) = walk
            .cycle()
            .find(|(_, key)| !std::mem::take(&mut map.get_mut(key).expect("listed").1))
            .expect("a full cache holds an entry");
        self.hand = self.order.range(tick + 1..).next().map(|(&t, _)| t);
        let key = self.order.remove(&tick).expect("the victim is listed");
        self.map.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys held, ascending. Reads the map directly: a `get` would
    /// set visited bits.
    fn held<K: Ord + Clone, V>(c: &SieveCache<K, V>) -> Vec<K> {
        let mut keys: Vec<K> = c.map.keys().cloned().collect();
        keys.sort();
        keys
    }

    #[test]
    fn a_visited_entry_survives_one_sweep() {
        let mut c = SieveCache::new(3);
        for i in 0..3 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.get(&0), Some(&0));
        c.insert(3, 30); // the sweep clears 0's bit and evicts 1
        assert_eq!(held(&c), [0, 2, 3]);
        assert_eq!(c.len(), 3);
        // With 2 and 3 visited, the next sweep passes them, wraps to the
        // oldest entry and finds 0's bit spent.
        c.get(&2);
        c.get(&3);
        c.insert(4, 40);
        assert_eq!(held(&c), [2, 3, 4]);
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    fn an_older_unvisited_entry_goes_first() {
        let mut c = SieveCache::new(4);
        for i in 0..4 {
            c.insert(i, ());
        }
        c.get(&0);
        c.get(&2);
        c.insert(4, ()); // 1 goes before the newer 3
        assert_eq!(held(&c), [0, 2, 3, 4]);
        c.insert(5, ()); // the hand passes the visited 2
        assert_eq!(held(&c), [0, 2, 4, 5]);
    }

    #[test]
    fn the_hand_keeps_its_place_across_evictions() {
        let mut c = SieveCache::new(3);
        for i in 0..3 {
            c.insert(i, ());
        }
        c.get(&0);
        c.insert(3, ()); // clears 0, evicts 1, stops at 2
        c.insert(4, ()); // evicts 2
        c.insert(5, ()); // evicts 3: an LRU would take 0, but the hand is past it
        assert_eq!(held(&c), [0, 4, 5]);
        // Evicting the newest entry sends the hand back to the oldest.
        c.get(&4);
        c.insert(6, ()); // evicts 5, the newest
        c.insert(7, ()); // the hand wraps: evicts 0, not the new 6
        assert_eq!(held(&c), [4, 6, 7]);
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let mut c = SieveCache::new(2);
        c.insert("a", 1);
        c.insert("a", 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&2));
        // A re-insert counts as a visit: "a" outlives the newer "b".
        let mut c = SieveCache::new(2);
        c.insert("a", 1);
        c.insert("b", 1);
        c.insert("a", 3);
        c.insert("c", 1);
        assert_eq!(held(&c), ["a", "c"]);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = SieveCache::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut c = SieveCache::new(8);
        for i in 0..10_000u64 {
            c.insert(i % 37, i);
            if i % 3 == 0 {
                c.get(&(i % 11));
            }
            assert!(c.len() <= 8);
            assert_eq!(c.order.len(), c.len(), "the list holds every entry");
        }
        // The most recent insert must be present.
        assert!(c.get(&(9_999 % 37)).is_some());
    }

    /// SIEVE as its paper lists it: a `Vec` of `(key, visited)` in
    /// insertion order, oldest first, and a hand index; `O(capacity)` per
    /// request.
    struct ListSieve {
        capacity: usize,
        list: Vec<(u64, bool)>,
        hand: Option<usize>,
    }

    impl ListSieve {
        /// Serves one request for `key`: `true` on a hit; a miss appends
        /// `key`, evicting first when full.
        fn request(&mut self, key: u64) -> bool {
            if let Some(entry) = self.list.iter_mut().find(|e| e.0 == key) {
                entry.1 = true;
                return true;
            }
            if self.list.len() == self.capacity {
                let mut at = self.hand.unwrap_or(0);
                while self.list[at].1 {
                    self.list[at].1 = false;
                    at = (at + 1) % self.list.len();
                }
                self.list.remove(at);
                // The next newer entry has moved into `at`.
                self.hand = (at < self.list.len()).then_some(at);
            }
            self.list.push((key, false));
            false
        }
    }

    #[test]
    fn matches_the_list_form_of_sieve() {
        use rand::Rng;
        let mut rng = crate::linalg::rng::seeded(7);
        for capacity in [1, 2, 5, 16] {
            let mut c = SieveCache::new(capacity);
            let mut reference = ListSieve {
                capacity,
                list: Vec::new(),
                hand: None,
            };
            for step in 0..20_000 {
                // Skewed keys, so some are asked for again and some not.
                let key = rng
                    .gen_range(0..4 * capacity as u64)
                    .min(rng.gen_range(0..64));
                let hit = c.get(&key).is_some();
                if !hit {
                    c.insert(key, ());
                }
                assert_eq!(
                    hit,
                    reference.request(key),
                    "capacity {capacity}, step {step}"
                );
                let mut want: Vec<u64> = reference.list.iter().map(|e| e.0).collect();
                want.sort_unstable();
                assert_eq!(held(&c), want, "capacity {capacity}, step {step}");
            }
        }
    }

    /// The LRU the server used before SIEVE, kept as the hit-rate
    /// reference: a `HashMap` from key to its last-use tick beside a
    /// `BTreeMap` from tick to key.
    struct Lru {
        capacity: usize,
        tick: u64,
        map: HashMap<u64, u64>,
        order: BTreeMap<u64, u64>,
    }

    impl Lru {
        /// Serves one request for `key`: `true` on a hit; a miss inserts
        /// `key`, evicting the least recently used key when full.
        fn request(&mut self, key: u64) -> bool {
            self.tick += 1;
            let stamp = self.map.insert(key, self.tick);
            if let Some(stamp) = stamp {
                self.order.remove(&stamp);
            } else if self.map.len() > self.capacity {
                let (_, victim) = self.order.pop_first().expect("a full LRU lists keys");
                self.map.remove(&victim);
            }
            self.order.insert(self.tick, key);
            stamp.is_some()
        }
    }

    /// SIEVE's and the LRU's hit rates at capacity 1024 on 200k requests
    /// for the keys `draw` yields.
    fn hit_rates(mut draw: impl FnMut() -> u64) -> (f64, f64) {
        let mut sieve = SieveCache::new(1024);
        let mut lru = Lru {
            capacity: 1024,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        };
        let (mut sieve_hits, mut lru_hits) = (0u32, 0u32);
        for _ in 0..200_000 {
            let key = draw();
            if sieve.get(&key).is_some() {
                sieve_hits += 1;
            } else {
                sieve.insert(key, ());
            }
            lru_hits += u32::from(lru.request(key));
            assert!(sieve.len() <= 1024 && lru.map.len() <= 1024);
        }
        (f64::from(sieve_hits) / 2e5, f64::from(lru_hits) / 2e5)
    }

    #[test]
    fn sieve_beats_the_lru_on_zipf_traffic_and_ties_it_on_uniform() {
        use rand::Rng;
        let mut rng = crate::linalg::rng::seeded(24);
        // Zipf(1.0) over 100k keys: key r is drawn with weight 1 / (r + 1).
        let cdf: Vec<f64> = (1..=100_000)
            .scan(0.0, |total, r| {
                *total += 1.0 / f64::from(r);
                Some(*total)
            })
            .collect();
        let zipf = hit_rates(|| {
            let u = rng.gen::<f64>() * cdf[cdf.len() - 1];
            cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u64
        });
        assert!(zipf.0 >= zipf.1 + 0.05, "Zipf(1.0): SIEVE, LRU = {zipf:?}");
        let uniform = hit_rates(|| rng.gen_range(0..100_000u64));
        assert!(
            (uniform.0 - uniform.1).abs() <= 0.01,
            "uniform: SIEVE, LRU = {uniform:?}"
        );
    }
}
