//! A [`StorageBackend`] wrapper that times and counts every operation.
//!
//! Every trait method forwards to the wrapped backend, the optional ones
//! included: the trait defaults `read_parallelism()` to 1, so a wrapper
//! that skipped it would turn parallel restores serial and measure a
//! different program. Sidecar (`.../meta`) puts are stamped with the
//! instant they returned — the moment a write-behind checkpoint became
//! durable — whether or not tracing is on.

use bytes::Bytes;
use cluster::StorageBackend;
use simcore::SimResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Operation counters of a [`TimingBackend`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StoreCounts {
    /// Puts issued.
    pub puts: u64,
    /// Gets issued.
    pub gets: u64,
    /// Lists issued.
    pub lists: u64,
    /// Wall milliseconds spent inside puts, summed over threads.
    pub put_busy_ms: f64,
    /// Wall milliseconds spent inside gets, summed over threads.
    pub get_busy_ms: f64,
    /// Payload bytes put.
    pub bytes_put: u64,
    /// Payload bytes returned by gets.
    pub bytes_get: u64,
    /// The wrapped backend's own `read_count()`.
    pub reads: u64,
}

impl StoreCounts {
    /// The counts accumulated since `before` was taken.
    pub fn since(&self, before: &StoreCounts) -> StoreCounts {
        StoreCounts {
            puts: self.puts - before.puts,
            gets: self.gets - before.gets,
            lists: self.lists - before.lists,
            put_busy_ms: self.put_busy_ms - before.put_busy_ms,
            get_busy_ms: self.get_busy_ms - before.get_busy_ms,
            bytes_put: self.bytes_put - before.bytes_put,
            bytes_get: self.bytes_get - before.bytes_get,
            reads: self.reads - before.reads,
        }
    }
}

/// Timing and counting wrapper over any backend.
pub struct TimingBackend {
    inner: Arc<dyn StorageBackend>,
    puts: AtomicU64,
    gets: AtomicU64,
    lists: AtomicU64,
    put_ns: AtomicU64,
    get_ns: AtomicU64,
    bytes_put: AtomicU64,
    bytes_get: AtomicU64,
    sidecars: Mutex<HashMap<String, Instant>>,
}

impl TimingBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Arc<TimingBackend> {
        Arc::new(TimingBackend {
            inner,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            lists: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
            bytes_put: AtomicU64::new(0),
            bytes_get: AtomicU64::new(0),
            sidecars: Mutex::new(HashMap::new()),
        })
    }

    /// Counters accumulated so far.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            lists: self.lists.load(Ordering::Relaxed),
            put_busy_ms: self.put_ns.load(Ordering::Relaxed) as f64 / 1e6,
            get_busy_ms: self.get_ns.load(Ordering::Relaxed) as f64 / 1e6,
            bytes_put: self.bytes_put.load(Ordering::Relaxed),
            bytes_get: self.bytes_get.load(Ordering::Relaxed),
            reads: self.inner.read_count(),
        }
    }

    /// The instant the sidecar at `path` was last put, if it was.
    pub fn sidecar_durable_at(&self, path: &str) -> Option<Instant> {
        self.sidecars
            .lock()
            .expect("sidecar map lock poisoned by a panicking put")
            .get(path)
            .copied()
    }
}

impl StorageBackend for TimingBackend {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        let len = data.len() as u64;
        let start = Instant::now();
        let out = self.inner.put(path, data);
        let end = Instant::now();
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_put.fetch_add(len, Ordering::Relaxed);
        self.put_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        if out.is_ok() && path.ends_with("/meta") {
            self.sidecars
                .lock()
                .expect("sidecar map lock poisoned by a panicking put")
                .insert(path.to_string(), end);
        }
        crate::trace::record("store.put", start, end);
        out
    }

    fn get(&self, path: &str) -> SimResult<Bytes> {
        let start = Instant::now();
        let out = self.inner.get(path);
        let end = Instant::now();
        self.gets.fetch_add(1, Ordering::Relaxed);
        if let Ok(b) = &out {
            self.bytes_get.fetch_add(b.len() as u64, Ordering::Relaxed);
        }
        self.get_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        crate::trace::record("store.get", start, end);
        out
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn delete(&self, path: &str) {
        let start = Instant::now();
        self.inner.delete(path);
        crate::trace::record("store.delete", start, Instant::now());
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let start = Instant::now();
        let out = self.inner.list(prefix);
        self.lists.fetch_add(1, Ordering::Relaxed);
        crate::trace::record("store.list", start, Instant::now());
        out
    }

    fn delete_prefix(&self, prefix: &str) -> usize {
        let start = Instant::now();
        let out = self.inner.delete_prefix(prefix);
        crate::trace::record("store.delete_prefix", start, Instant::now());
        out
    }

    fn read_count(&self) -> u64 {
        self.inner.read_count()
    }

    fn list_count(&self) -> u64 {
        self.inner.list_count()
    }

    fn read_parallelism(&self) -> usize {
        self.inner.read_parallelism()
    }

    fn fallback_reads(&self) -> u64 {
        self.inner.fallback_reads()
    }

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}
