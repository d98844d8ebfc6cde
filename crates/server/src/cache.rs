//! The quotient cache: compiled artifacts interned by presentation code.
//!
//! Artifacts are keyed two ways:
//!
//! * **by spec** — the canonical registry spec string, so a repeated query
//!   skips recompilation entirely;
//! * **by presentation code** — [`CompiledQuotient::presentation_code`], so
//!   two specs that compile to the *same presentation* share one artifact
//!   (and its solved stationary vector). The code is a 64-bit hash; a lookup
//!   candidate is only shared after [`CompiledQuotient::identical`]
//!   **confirms** exact equality, so a hash collision can never poison the
//!   cache — colliding-but-different artifacts live side by side under one
//!   code. [`QuotientCache::intern_with_code`] exposes the code as an
//!   explicit parameter so tests can force collisions.
//!
//! Entries also carry the model *family* (the spec minus its rate scale) and
//! memoise their stationary distribution once solved;
//! [`QuotientCache::warm_donor`] hands out a solved vector of a same-family,
//! same-dimension sibling as the warm start for a rate-perturbed variant,
//! picked by a total order so the donor never depends on hash order.
//!
//! The cache is **bounded**: [`QuotientCache::with_capacity`] caps the number
//! of registered spec keys, evicting the least-recently-used spec (and any
//! artifact no surviving spec references) when the cap is exceeded. The
//! default cache is unbounded, preserving the original daemon behaviour;
//! eviction only discards memoised work, never correctness — a re-queried
//! evicted spec recompiles to a bit-identical artifact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use arcade_core::CompiledQuotient;

/// One interned artifact plus its solve state.
pub struct CacheEntry {
    code: u64,
    family: String,
    quotient: Arc<CompiledQuotient>,
    stationary: Mutex<Option<Arc<Vec<f64>>>>,
}

impl CacheEntry {
    /// The presentation code this entry is interned under.
    pub fn code(&self) -> u64 {
        self.code
    }

    /// The model family (spec minus rate scale) this entry belongs to.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The artifact.
    pub fn quotient(&self) -> &Arc<CompiledQuotient> {
        &self.quotient
    }

    /// The memoised stationary distribution, if it has been solved.
    pub fn stationary(&self) -> Option<Arc<Vec<f64>>> {
        self.stationary.lock().unwrap().clone()
    }

    /// Memoises the solved stationary distribution.
    pub fn set_stationary(&self, pi: Arc<Vec<f64>>) {
        *self.stationary.lock().unwrap() = Some(pi);
    }
}

#[derive(Default)]
struct CacheInner {
    /// Spec key → (entry, last-used tick). The tick drives the LRU order.
    by_spec: HashMap<String, (Arc<CacheEntry>, u64)>,
    /// Collision chain per presentation code: distinct artifacts that share
    /// a code (expected length 1).
    by_code: HashMap<u64, Vec<Arc<CacheEntry>>>,
    /// Monotonic access clock backing the LRU order.
    tick: u64,
    /// Evicted spec keys (and codes whose chains emptied) not yet drained by
    /// [`QuotientCache::drain_evicted`] — the service uses them to release
    /// its memoised computation slots.
    pending_evictions: (Vec<String>, Vec<u64>),
}

impl CacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used specs until at most `capacity` remain,
    /// then drops artifacts no surviving spec references. Returns the number
    /// of spec keys evicted and records them (plus any code whose collision
    /// chain emptied) for [`QuotientCache::drain_evicted`].
    fn enforce_capacity(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while self.by_spec.len() > capacity {
            let oldest = self
                .by_spec
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(spec, _)| spec.clone())
                .expect("non-empty over capacity");
            self.by_spec.remove(&oldest);
            self.pending_evictions.0.push(oldest);
            evicted += 1;
        }
        if evicted > 0 {
            // Garbage-collect artifacts that lost their last spec reference
            // so `warm_donor` never hands out vectors of evicted entries.
            let by_spec = &self.by_spec;
            let emptied = &mut self.pending_evictions.1;
            self.by_code.retain(|code, chain| {
                chain.retain(|artifact| {
                    by_spec
                        .values()
                        .any(|(entry, _)| Arc::ptr_eq(entry, artifact))
                });
                if chain.is_empty() {
                    emptied.push(*code);
                }
                !chain.is_empty()
            });
        }
        evicted
    }
}

/// The interning cache (see the module docs). All methods are thread-safe.
#[derive(Default)]
pub struct QuotientCache {
    inner: Mutex<CacheInner>,
    /// Maximum number of registered spec keys (`None` = unbounded).
    capacity: Option<usize>,
    /// Spec keys evicted so far.
    evictions: AtomicU64,
}

impl QuotientCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        QuotientCache::default()
    }

    /// An empty cache holding at most `capacity` spec keys: exceeding the
    /// cap evicts the least-recently-used spec and any artifact no surviving
    /// spec references.
    pub fn with_capacity(capacity: usize) -> Self {
        QuotientCache {
            capacity: Some(capacity),
            ..QuotientCache::default()
        }
    }

    /// The spec-key cap (`None` for an unbounded cache).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of spec keys evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Takes the spec keys evicted since the last drain, plus the codes
    /// whose collision chains emptied with them. The service uses these to
    /// release its memoised build/solve slots, so eviction actually frees
    /// the artifact memory instead of leaving it pinned elsewhere.
    pub fn drain_evicted(&self) -> (Vec<String>, Vec<u64>) {
        std::mem::take(&mut self.inner.lock().unwrap().pending_evictions)
    }

    /// The entry registered under a canonical spec string, if any. A hit
    /// refreshes the spec's LRU position.
    pub fn get(&self, spec: &str) -> Option<Arc<CacheEntry>> {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        let slot = inner.by_spec.get_mut(spec)?;
        slot.1 = tick;
        Some(Arc::clone(&slot.0))
    }

    /// Interns a freshly compiled artifact under `spec`, using the
    /// artifact's own presentation code. Returns the entry to use and
    /// whether an already-cached identical artifact was shared (`true`)
    /// rather than this one stored (`false`).
    pub fn insert(
        &self,
        spec: &str,
        family: &str,
        quotient: CompiledQuotient,
    ) -> (Arc<CacheEntry>, bool) {
        let code = quotient.presentation_code();
        self.intern_with_code(spec, family, code, quotient)
    }

    /// [`QuotientCache::insert`] with an explicit presentation code — the
    /// collision-hardening seam: candidates under `code` are only shared
    /// after [`CompiledQuotient::identical`] confirms them, so passing the
    /// same code for two different artifacts (as the collision regression
    /// test does) keeps them separate instead of conflating them.
    pub fn intern_with_code(
        &self,
        spec: &str,
        family: &str,
        code: u64,
        quotient: CompiledQuotient,
    ) -> (Arc<CacheEntry>, bool) {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        let chain = inner.by_code.entry(code).or_default();
        let (entry, shared) = match chain
            .iter()
            .find(|entry| entry.quotient.identical(&quotient))
        {
            Some(existing) => (Arc::clone(existing), true),
            None => {
                let entry = Arc::new(CacheEntry {
                    code,
                    family: family.to_string(),
                    quotient: Arc::new(quotient),
                    stationary: Mutex::new(None),
                });
                chain.push(Arc::clone(&entry));
                (entry, false)
            }
        };
        inner
            .by_spec
            .insert(spec.to_string(), (Arc::clone(&entry), tick));
        if let Some(capacity) = self.capacity {
            let evicted = inner.enforce_capacity(capacity);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        (entry, shared)
    }

    /// A solved stationary vector of a same-family entry with the given
    /// state count, excluding `exclude_code` (the asking entry itself) — the
    /// warm-start donor for a rate-perturbed variant. Dimensions are checked
    /// here so the guess always fits the asking chain. Among the solved
    /// candidates the donor is the one with the smallest presentation code,
    /// then the earliest in its collision chain, so the same cache contents
    /// pick the same donor in every process.
    pub fn warm_donor(
        &self,
        family: &str,
        states: usize,
        exclude_code: u64,
    ) -> Option<Arc<Vec<f64>>> {
        let inner = self.inner.lock().unwrap();
        inner
            .by_code
            .iter()
            .filter(|(&code, _)| code != exclude_code)
            .flat_map(|(&code, chain)| {
                chain
                    .iter()
                    .enumerate()
                    .map(move |(position, entry)| ((code, position), entry))
            })
            .filter(|(_, entry)| entry.family == family && entry.quotient.num_states() == states)
            .filter_map(|(rank, entry)| entry.stationary().map(|pi| (rank, pi)))
            .min_by_key(|(rank, _)| *rank)
            .map(|(_, pi)| pi)
    }

    /// Number of distinct interned artifacts.
    pub fn num_artifacts(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .by_code
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Number of registered spec keys.
    pub fn num_specs(&self) -> usize {
        self.inner.lock().unwrap().by_spec.len()
    }
}
