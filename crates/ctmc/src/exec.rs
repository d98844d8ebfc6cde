//! Shared execution layer: worker pools on `std` scoped threads.
//!
//! Every parallel code path of the Arcade reproduction — the row-sharded
//! sparse-matrix kernels in this crate, the product materialisation, the
//! Monte-Carlo replication batches and the experiment-level strategy sweeps —
//! draws its thread budget from one [`ExecOptions`] value, so a single
//! `--threads N` knob controls the whole pipeline. (The composer is serial
//! and ignores the knob.) The environment is offline and the only
//! threading substrate is `std::thread::scope`; there is no rayon.
//!
//! # Determinism contract
//!
//! Parallelism in this workspace never changes results. Every kernel built on
//! this module performs its floating-point accumulations in the same order as
//! the serial path (per-row or per-column accumulation over disjoint output
//! shards), so `threads = N` is **bit-identical** to `threads = 1` for any
//! `N`. Work smaller than [`MIN_PARALLEL_WORK`] units is run inline to keep
//! tiny quotient chains free of thread-spawn overhead; because the sharded
//! and the inline path compute identical bits, the cutover is unobservable.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Below this many work units (stored matrix entries, product states, ...)
/// a kernel runs inline instead of fanning out; thread-spawn latency would
/// dominate. Results are bit-identical either way.
pub const MIN_PARALLEL_WORK: usize = 4096;

/// Thread-count knob shared by every parallel subsystem.
///
/// `threads == 0` (the default) resolves to the machine's available
/// parallelism; `threads == 1` is the exact serial path — no worker threads
/// are ever spawned. The `ARCADE_THREADS` environment variable, when set to a
/// positive integer, overrides the auto-detected default (it does *not*
/// override an explicit `with_threads` choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecOptions {
    /// Requested worker count; `0` means "use the available parallelism".
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: env_default_threads(),
        }
    }
}

impl ExecOptions {
    /// Explicit thread count; `0` auto-detects.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions { threads }
    }

    /// The exact serial path: no worker threads, byte-for-byte the historical
    /// single-threaded behaviour.
    pub fn serial() -> Self {
        ExecOptions { threads: 1 }
    }

    /// The effective worker count: `threads`, with `0` resolved to the
    /// available parallelism (at least one).
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            available_parallelism()
        } else {
            self.threads
        }
    }

    /// Worker count for a task of `work` total units: the resolved thread
    /// count, throttled to one when the task is too small to amortise
    /// thread-spawn overhead and never more than one worker per unit.
    pub fn workers_for(&self, work: usize) -> usize {
        let threads = self.resolved_threads();
        if threads <= 1 || work < MIN_PARALLEL_WORK {
            1
        } else {
            threads.min(work.max(1))
        }
    }
}

/// Cached `ARCADE_THREADS` / auto-detection default (the environment cannot
/// change mid-process in any supported configuration).
fn env_default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("ARCADE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(0)
    })
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Size of each contiguous shard when `len` work units are split across
/// `workers` (the last shard may be shorter). Shared by every sharded kernel
/// — including `chunks_mut`-based ones — and by [`shard_ranges`], so all
/// shard boundaries in the workspace agree on one decomposition.
pub fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1)).max(1)
}

/// Splits `0..len` into at most `shards` contiguous, non-empty ranges of
/// [`chunk_len`]-sized pieces. The decomposition depends only on
/// `(len, shards)`, never on scheduling, so shard boundaries are
/// deterministic.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = chunk_len(len, shards.clamp(1, len));
    (0..len.div_ceil(chunk))
        .map(|s| (s * chunk)..((s + 1) * chunk).min(len))
        .collect()
}

/// Splits `out` into contiguous [`chunk_len`]-sized shards, at most one per
/// worker, and runs `f(start, shard)` on each — `start` being the shard's offset in
/// `out` — returning the per-shard results in shard order.
///
/// This is the one sharding site of every output-parallel kernel (CSR and
/// Kronecker-sum SpMV, fused elementwise sweeps): each worker owns a
/// disjoint slice of the output, so a kernel that computes every output
/// entry within one worker, in the serial accumulation order, is
/// bit-identical for any `workers`. With one worker `f(0, out)` runs inline
/// and no thread is spawned.
pub fn for_each_shard<T, R, F>(out: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    if workers <= 1 {
        return vec![f(0, out)];
    }
    let chunk = chunk_len(out.len(), workers);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, shard)| scope.spawn(move || f(i * chunk, shard)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("no worker panicked"))
            .collect()
    })
}

/// Maps `f` over `items` on a pool of `exec` workers, returning the outputs
/// in item order (first-come scheduling, deterministic reassembly).
///
/// Items are claimed one at a time from a shared queue, so heterogeneous task
/// costs balance across workers — this is the experiment-level sweep used to
/// run independent figure curves or strategy solves concurrently. With one
/// worker (or a single item) it degenerates to a plain in-order map.
pub fn map_ordered<T, R, F>(items: &[T], exec: ExecOptions, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = exec.resolved_threads().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let out = f(&items[index]);
                slots.lock().expect("no worker panicked")[index] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolve_to_available_parallelism() {
        let auto = ExecOptions::with_threads(0);
        assert!(auto.resolved_threads() >= 1);
        assert_eq!(ExecOptions::serial().resolved_threads(), 1);
        assert_eq!(ExecOptions::with_threads(3).resolved_threads(), 3);
    }

    #[test]
    fn small_work_is_throttled_to_one_worker() {
        let exec = ExecOptions::with_threads(8);
        assert_eq!(exec.workers_for(MIN_PARALLEL_WORK - 1), 1);
        assert_eq!(exec.workers_for(MIN_PARALLEL_WORK), 8);
        assert_eq!(ExecOptions::serial().workers_for(1 << 20), 1);
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for len in [0usize, 1, 7, 100, 101] {
            for shards in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(len, shards);
                let mut covered = 0;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, covered, "len={len} shards={shards} range {i}");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, len);
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn for_each_shard_covers_the_output_in_shard_order() {
        for workers in [1usize, 2, 3, 8] {
            let mut out = vec![0usize; 10];
            let starts = for_each_shard(&mut out, workers, |start, shard| {
                for (offset, slot) in shard.iter_mut().enumerate() {
                    *slot = start + offset;
                }
                start
            });
            assert_eq!(out, (0..10).collect::<Vec<_>>(), "{workers} workers");
            let chunk = chunk_len(10, workers);
            let expected: Vec<usize> = (0..10).step_by(chunk).collect();
            assert_eq!(starts, expected, "{workers} workers");
        }
    }

    #[test]
    fn map_ordered_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_ordered(&items, ExecOptions::with_threads(threads), |&i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map_ordered(&empty, ExecOptions::default(), |&i: &usize| i).is_empty());
    }
}
