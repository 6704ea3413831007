//! The good-tape cache — the server's headline mechanism.
//!
//! The most expensive serial fraction of a fault-parallel campaign is
//! recording the good machine once per run
//! ([`fmossim_core::GoodTape::record`]). A long-running server sees
//! the *same* circuit and stimulus over and over (CI re-runs, A/B
//! sweeps, parameter scans over the fault universe), and the good
//! machine does not depend on the fault universe at all — so the tape
//! is cached across campaigns, keyed by
//! ([`Network::content_hash`](fmossim_netlist::Network::content_hash),
//! [`stimulus_content_hash`](fmossim_core::stimulus_content_hash)).
//! A repeat submission replays the cached tape and skips the record
//! pass entirely: its report carries `tape_record_seconds == 0`.
//!
//! The cache holds whole tapes in memory, so it is bounded by a byte
//! budget over [`GoodTape::heap_bytes`] with least-recently-*used*
//! eviction (a `get` refreshes recency). A single tape larger than
//! the whole budget is simply not cached.

use fmossim_core::GoodTape;
use fmossim_telemetry::{Counter, Gauge, Registry};
use std::sync::{Arc, Mutex};

/// A cache key: `(netlist content hash, stimulus content hash)`.
///
/// The engine configuration is deliberately *not* part of the key: the
/// server simulates every campaign under one fixed configuration (see
/// [`ServedBackend`](crate::ServedBackend)), so two submissions with
/// equal hashes always produce byte-identical tapes.
pub type TapeKey = (u64, u64);

struct Entry {
    key: TapeKey,
    tape: Arc<GoodTape>,
    bytes: usize,
}

struct CacheInner {
    /// LRU order: least recently used at the front, most recent at
    /// the back.
    entries: Vec<Entry>,
    bytes: usize,
}

/// The byte-budgeted LRU tape cache (see the module docs).
///
/// ```
/// use fmossim_circuits::Ram;
/// use fmossim_core::{stimulus_content_hash, ConcurrentConfig, GoodTape};
/// use fmossim_serve::TapeCache;
/// use fmossim_telemetry::Registry;
/// use fmossim_testgen::TestSequence;
/// use std::sync::Arc;
///
/// let ram = Ram::new(2, 2);
/// let seq = TestSequence::full(&ram);
/// let key = (ram.network().content_hash(), stimulus_content_hash(seq.patterns()));
/// let tape = Arc::new(GoodTape::record(
///     ram.network(),
///     seq.patterns(),
///     ConcurrentConfig::paper().engine,
/// ));
///
/// let registry = Registry::new();
/// let cache = TapeCache::new(64 << 20, &registry);
/// assert!(cache.get(key).is_none(), "cold");
/// cache.insert(key, Arc::clone(&tape));
/// assert!(cache.get(key).is_some(), "warm");
/// assert_eq!(registry.counter("serve.cache.misses").get(), 1);
/// assert_eq!(registry.counter("serve.cache.hits").get(), 1);
/// ```
pub struct TapeCache {
    inner: Mutex<CacheInner>,
    budget: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes_gauge: Gauge,
}

impl TapeCache {
    /// A cache bounded to `budget` bytes of tape heap, publishing
    /// `serve.cache.{hits,misses,evictions}` counters and the
    /// `serve.cache.bytes` gauge into `registry`.
    #[must_use]
    pub fn new(budget: usize, registry: &Registry) -> TapeCache {
        TapeCache {
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                bytes: 0,
            }),
            budget,
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            evictions: registry.counter("serve.cache.evictions"),
            bytes_gauge: registry.gauge("serve.cache.bytes"),
        }
    }

    /// Looks up a tape, refreshing its recency and counting a hit or
    /// a miss.
    #[must_use]
    pub fn get(&self, key: TapeKey) -> Option<Arc<GoodTape>> {
        let mut inner = self.inner.lock().expect("tape cache poisoned");
        match inner.entries.iter().position(|e| e.key == key) {
            Some(i) => {
                let entry = inner.entries.remove(i);
                let tape = Arc::clone(&entry.tape);
                inner.entries.push(entry);
                self.hits.inc();
                Some(tape)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts (or refreshes) a tape, then evicts least-recently-used
    /// entries until the budget holds. A tape alone exceeding the
    /// budget is not cached.
    pub fn insert(&self, key: TapeKey, tape: Arc<GoodTape>) {
        let bytes = tape.heap_bytes();
        let mut inner = self.inner.lock().expect("tape cache poisoned");
        if let Some(i) = inner.entries.iter().position(|e| e.key == key) {
            let old = inner.entries.remove(i);
            inner.bytes -= old.bytes;
        }
        if bytes <= self.budget {
            inner.entries.push(Entry { key, tape, bytes });
            inner.bytes += bytes;
            while inner.bytes > self.budget {
                let evicted = inner.entries.remove(0);
                inner.bytes -= evicted.bytes;
                self.evictions.inc();
            }
        }
        self.bytes_gauge.set(inner.bytes as f64);
    }

    /// Cached tape count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("tape cache poisoned")
            .entries
            .len()
    }

    /// True iff nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached tape heap bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("tape cache poisoned").bytes
    }

    /// The cached keys, least recently used first.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<TapeKey> {
        let inner = self.inner.lock().expect("tape cache poisoned");
        inner.entries.iter().map(|e| e.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmossim_circuits::Ram;
    use fmossim_core::ConcurrentConfig;
    use fmossim_testgen::TestSequence;

    /// Distinct tapes of identical shape, distinguished by the key.
    fn tape() -> Arc<GoodTape> {
        let ram = Ram::new(2, 2);
        let seq = TestSequence::full(&ram);
        Arc::new(GoodTape::record(
            ram.network(),
            seq.patterns(),
            ConcurrentConfig::paper().engine,
        ))
    }

    #[test]
    fn evicts_least_recently_used_by_bytes() {
        let t = tape();
        let size = t.heap_bytes();
        assert!(size > 0);
        let registry = Registry::new();
        // Room for exactly two tapes.
        let cache = TapeCache::new(2 * size, &registry);
        cache.insert((1, 1), Arc::clone(&t));
        cache.insert((2, 2), Arc::clone(&t));
        assert_eq!((cache.len(), cache.bytes()), (2, 2 * size));

        // Touch (1,1) so (2,2) becomes the LRU victim.
        assert!(cache.get((1, 1)).is_some());
        cache.insert((3, 3), Arc::clone(&t));
        assert_eq!(cache.len(), 2);
        assert!(cache.get((1, 1)).is_some(), "recently used survives");
        assert!(cache.get((3, 3)).is_some(), "newcomer survives");
        assert!(cache.get((2, 2)).is_none(), "LRU evicted");
        assert_eq!(registry.counter("serve.cache.evictions").get(), 1);
        assert_eq!(registry.gauge("serve.cache.bytes").get(), (2 * size) as f64);
    }

    #[test]
    fn refreshing_a_key_does_not_double_count() {
        let t = tape();
        let cache = TapeCache::new(10 * t.heap_bytes(), &Registry::null());
        cache.insert((1, 1), Arc::clone(&t));
        cache.insert((1, 1), Arc::clone(&t));
        assert_eq!((cache.len(), cache.bytes()), (1, t.heap_bytes()));
    }

    #[test]
    fn oversized_tapes_are_not_cached() {
        let t = tape();
        let cache = TapeCache::new(t.heap_bytes() - 1, &Registry::null());
        cache.insert((1, 1), t);
        assert!(cache.is_empty());
        assert!(cache.get((1, 1)).is_none());
    }
}
