//! A work-stealing chunked parallel-for on scoped threads.
//!
//! The paper's GPU runtime launches kernels onto an already-running
//! device. Here each dispatch spawns its workers inside
//! [`std::thread::scope`] and joins them all before it returns, so the
//! closure is borrowed for exactly as long as the workers run — no
//! parked pool, no lifetime erasure, no lock shared between dispatches:
//! concurrent dispatches (different tenants of one server, parallel test
//! threads) run side by side. A spawn costs ~30 µs more than waking a
//! parked worker (40–74 µs vs 13–23 µs per `parallel_for(2, 16384,
//! no-op)` on a 2-vCPU x86-64 VM), and the fresh worker starts later.
//! The benchmark's timed runs (one VM thread) never dispatch; `tables`
//! (two threads there) does, and SpMV's `Opt.` column read 0.20× / 0.21×
//! against the parked pool's 0.25× / 0.36× (medians of 8 A/B runs).
//!
//! Dispatch is **work-stealing over an atomic chunk counter**: the index
//! space `0..n` is cut into chunks of `max(MIN_SEQ, n / (workers · 4))`
//! iterations, and every participant — the caller runs as slot 0 —
//! repeatedly claims the next chunk with a `fetch_add` and hands the whole
//! range to `f` (a map sets up its row view once per chunk) until the
//! index space is exhausted. Skewed iterations therefore never leave
//! workers idle the way a static per-worker split does: whoever finishes
//! early steals the remaining chunks. Trip counts below `2 · MIN_SEQ` run
//! inline on the caller; the memory traffic is identical either way. Each
//! dispatch reports a [`DispatchInfo`] — chunks issued, chunks stolen by
//! non-caller slots, workers engaged vs offered — surfaced as `Stats`
//! counters.
//!
//! The requested thread count is honored even beyond the hardware
//! parallelism (oversubscription), so thread-scaling sweeps behave
//! uniformly on any host; `ARRAYMEM_THREADS` overrides the default
//! request ([`default_threads`]).
//!
//! A panic inside `f` ends only that participant's stealing: the others
//! drain the remaining chunks, every worker is joined, and the first
//! payload — the caller's, else a worker's — is re-raised on the caller.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard cap on worker slots (caller included) a dispatch may request —
/// a backstop against pathological thread counts, far above any sensible
/// oversubscription.
pub const MAX_THREADS: usize = 64;

/// The default per-dispatch thread budget: `ARRAYMEM_THREADS` when set
/// (a number, or `max` for the hardware parallelism), else the number of
/// available hardware threads. Read once.
pub fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match std::env::var("ARRAYMEM_THREADS") {
            Ok(v) if v.trim().eq_ignore_ascii_case("max") => hw,
            Ok(v) => v
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(|n| n.min(MAX_THREADS))
                .unwrap_or(hw),
            Err(_) => hw,
        }
    })
}

/// Minimum iterations a chunk must hold before parallelism pays for the
/// claim's `fetch_add`; trip counts below `2 * MIN_SEQ` run inline.
const MIN_SEQ: i64 = 128;

/// Target number of chunks per participating worker: small enough that
/// claiming stays cheap, large enough that early finishers find work to
/// steal when iterations are skewed.
const CHUNKS_PER_WORKER: i64 = 4;

/// How one `parallel_for` call was executed — the per-dispatch
/// work-stealing accounting the VM aggregates into `Stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchInfo {
    /// Whether the job ran on worker threads (vs inline).
    pub dispatched: bool,
    /// Worker slots offered to the job (caller included).
    pub workers_offered: usize,
    /// Participants that claimed at least one chunk.
    pub workers_engaged: usize,
    /// Chunks claimed in total.
    pub chunks: u64,
    /// Chunks claimed by a slot other than the calling thread.
    pub chunks_stolen: u64,
}

impl DispatchInfo {
    fn inline() -> DispatchInfo {
        DispatchInfo {
            dispatched: false,
            workers_offered: 1,
            workers_engaged: 1,
            chunks: 1,
            chunks_stolen: 0,
        }
    }
}

/// Per-job state every participant shares: the atomic chunk cursor plus
/// the steal accounting behind [`DispatchInfo`]. The counters publish no
/// other data (the scope's joins order everything the job wrote), so
/// they are `Relaxed`.
#[derive(Default)]
struct JobCtl {
    next: AtomicI64,
    chunks: AtomicU64,
    stolen: AtomicU64,
    engaged: AtomicUsize,
}

/// Claim chunks off the shared cursor until the range is exhausted.
fn steal_loop<F: Fn(Range<i64>, usize)>(f: &F, ctl: &JobCtl, n: i64, chunk: i64, slot: usize) {
    let mut engaged = false;
    loop {
        let start = ctl.next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            return;
        }
        if !engaged {
            engaged = true;
            ctl.engaged.fetch_add(1, Ordering::Relaxed);
        }
        ctl.chunks.fetch_add(1, Ordering::Relaxed);
        if slot != 0 {
            ctl.stolen.fetch_add(1, Ordering::Relaxed);
        }
        f(start..(start + chunk).min(n), slot);
    }
}

/// Run `f(i)` for every `i` in `0..n`, using up to `threads` workers.
pub fn parallel_for<F>(threads: usize, n: i64, f: F) -> DispatchInfo
where
    F: Fn(i64) + Sync,
{
    parallel_for_chunks(threads, n, |r, _| r.for_each(&f))
}

/// Run `f` over disjoint chunks covering `0..n` (inline: one call with
/// `0..n`), using up to `threads` workers, with the worker id `< threads`
/// for private per-worker scratch, like GPU private memory.
pub fn parallel_for_chunks<F>(threads: usize, n: i64, f: F) -> DispatchInfo
where
    F: Fn(Range<i64>, usize) + Sync,
{
    if n <= 0 {
        return DispatchInfo {
            chunks: 0,
            workers_engaged: 0,
            ..DispatchInfo::inline()
        };
    }
    let by_trip = (n / MIN_SEQ).max(1) as usize;
    let usable = threads.clamp(1, MAX_THREADS).min(by_trip);
    if usable <= 1 {
        f(0..n, 0);
        return DispatchInfo::inline();
    }
    let chunk = (n / (usable as i64 * CHUNKS_PER_WORKER)).max(MIN_SEQ);
    let (f, ctl) = (&f, &JobCtl::default());
    let panicked = std::thread::scope(|s| {
        let workers: Vec<_> = (1..usable)
            .map(|slot| s.spawn(move || steal_loop(f, ctl, n, chunk, slot)))
            .collect();
        // The caller is slot 0: it steals chunks like everyone else.
        let own = catch_unwind(AssertUnwindSafe(|| steal_loop(f, ctl, n, chunk, 0)));
        // Join every worker (`or` is eager); keep the first payload.
        workers
            .into_iter()
            .fold(own.err(), |first, w| first.or(w.join().err()))
    });
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    DispatchInfo {
        dispatched: true,
        workers_offered: usable,
        workers_engaged: ctl.engaged.load(Ordering::Relaxed),
        chunks: ctl.chunks.load(Ordering::Relaxed),
        chunks_stolen: ctl.stolen.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn covers_all_indices_sequential() {
        let sum = AtomicI64::new(0);
        let info = parallel_for(1, 100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        assert!(!info.dispatched, "one thread must run inline");
    }

    #[test]
    fn covers_all_indices_parallel() {
        let sum = AtomicI64::new(0);
        let info = parallel_for(8, 10_000, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
        assert!(info.dispatched);
        assert!(info.workers_offered <= 8);
        assert!(info.workers_engaged >= 1);
        assert!(info.chunks >= info.chunks_stolen);
    }

    #[test]
    fn empty_range_is_noop() {
        let info = parallel_for(4, 0, |_| panic!("must not run"));
        assert!(!info.dispatched);
        assert_eq!(info.chunks, 0);
    }

    #[test]
    fn small_trip_counts_run_inline() {
        let hits = AtomicI64::new(0);
        let info = parallel_for(8, MIN_SEQ, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!info.dispatched, "below 2*MIN_SEQ must run inline");
        assert_eq!(hits.load(Ordering::Relaxed), MIN_SEQ);
    }

    /// The inline path and a parallel dispatch must produce bit-identical
    /// results for the same trip count — the regression the VM relies on
    /// when a map falls under the inline threshold on one machine but
    /// dispatches on another.
    #[test]
    fn inline_and_parallel_runs_are_bit_identical() {
        let n = 8 * MIN_SEQ;
        let run = |threads: usize| -> (Vec<i64>, bool) {
            let out: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
            let info = parallel_for(threads, n, |i| {
                out[i as usize].store(i * 31 + 7, Ordering::Relaxed);
            });
            (
                out.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                info.dispatched,
            )
        };
        let (seq, seq_disp) = run(1);
        let (par, par_disp) = run(6);
        assert!(!seq_disp && par_disp);
        assert_eq!(seq, par, "parallel dispatch diverged from inline");
    }

    #[test]
    fn worker_ids_stay_below_thread_budget() {
        for threads in 1..=8usize {
            let max_seen = AtomicUsize::new(0);
            let count = AtomicI64::new(0);
            parallel_for_chunks(threads, 4096, |r, w| {
                max_seen.fetch_max(w, Ordering::Relaxed);
                count.fetch_add(r.end - r.start, Ordering::Relaxed);
            });
            assert!(max_seen.load(Ordering::Relaxed) < threads);
            assert_eq!(count.load(Ordering::Relaxed), 4096);
        }
    }

    #[test]
    fn uneven_widths_cover_every_index() {
        for n in [1i64, 7, 255, 256, 257, 1000, 4097, 10_000] {
            let sum = AtomicI64::new(0);
            parallel_for(5, n, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn pool_survives_reuse_across_many_dispatches() {
        let total = AtomicI64::new(0);
        for _ in 0..200 {
            parallel_for(4, 2048, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 2048);
    }

    /// A skewed dispatch where the caller's first chunk is slow: the
    /// background workers must steal the remaining chunks off the shared
    /// cursor instead of idling behind a static split.
    #[test]
    fn skewed_iterations_are_stolen() {
        let n = 16 * MIN_SEQ;
        let done = AtomicI64::new(0);
        let info = parallel_for_chunks(4, n, |r, _| {
            if r.start == 0 {
                // Park the caller inside its first chunk long enough for
                // the workers to wake and drain the cursor.
                std::thread::sleep(Duration::from_millis(150));
            }
            done.fetch_add(r.end - r.start, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), n);
        assert!(info.dispatched);
        assert!(
            info.chunks_stolen >= 1,
            "workers must steal chunks while the caller is stuck: {info:?}"
        );
        assert!(info.workers_engaged >= 2, "{info:?}");
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let r = std::panic::catch_unwind(|| {
            parallel_for(8, 10_000, |i| {
                if i == 9_999 {
                    panic!("deliberate test panic");
                }
            });
        });
        assert!(r.is_err(), "the panic must reach the dispatcher");
        // The pool must still work afterwards.
        let sum = AtomicI64::new(0);
        parallel_for(8, 2048, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 2048 * 2047 / 2);
    }

    /// Stress the panic path *during stealing*: a worker dies mid-job
    /// while other participants are still claiming chunks. Every
    /// dispatch must re-raise exactly once (the catch_unwind below), the
    /// surviving participants must drain the cursor, and the pool must
    /// stay fully usable across many such failures.
    #[test]
    fn panic_during_steal_stress() {
        let n = 32 * MIN_SEQ;
        for round in 0..25 {
            let poison = (round * 997) % n; // a different chunk each round
            let r = std::panic::catch_unwind(|| {
                parallel_for(6, n, |i| {
                    if i == poison {
                        panic!("poisoned index");
                    }
                });
            });
            assert!(r.is_err(), "round {round}: panic must propagate");
            // A clean dispatch right after must succeed and cover the
            // whole range.
            let sum = AtomicI64::new(0);
            let info = parallel_for(6, n, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert!(info.dispatched);
            assert_eq!(
                sum.load(Ordering::Relaxed),
                n * (n - 1) / 2,
                "round {round}"
            );
        }
    }

    /// A worker's own panic payload reaches the dispatcher: the caller is
    /// parked in its first chunk while the workers claim theirs and panic.
    #[test]
    fn worker_panic_reaches_the_dispatcher_with_its_payload() {
        let payload = std::panic::catch_unwind(|| {
            parallel_for_chunks(4, 16 * MIN_SEQ, |r, w| {
                if r.start == 0 {
                    std::thread::sleep(Duration::from_millis(150));
                }
                if w != 0 {
                    panic!("from worker");
                }
            });
        })
        .expect_err("the worker's panic must reach the dispatcher");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"from worker"));
    }

    /// Dispatches from different threads run side by side: whichever of a
    /// job's participants (caller or worker) runs its first iteration
    /// announces the job and waits (up to 2 s) for the other job's
    /// announcement.
    #[test]
    fn concurrent_dispatches_overlap() {
        let seen = (Mutex::new([false; 2]), Condvar::new());
        let both = |job: usize| {
            let announced = AtomicBool::new(false);
            let saw_other = AtomicBool::new(false);
            parallel_for_chunks(2, 4 * MIN_SEQ, |_, _| {
                if announced.swap(true, Ordering::Relaxed) {
                    return;
                }
                let mut flags = seen.0.lock().unwrap();
                flags[job] = true;
                seen.1.notify_all();
                let (flags, _) = seen
                    .1
                    .wait_timeout_while(flags, Duration::from_secs(2), |f| !f[1 - job])
                    .unwrap();
                saw_other.store(flags[1 - job], Ordering::Relaxed);
            });
            saw_other.into_inner()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| both(0));
            let b = s.spawn(|| both(1));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a && b, "the jobs did not overlap: {a} {b}");
    }

    /// Concurrent dispatches from several threads each cover their whole
    /// range: at every width, and at trip counts around the inline
    /// threshold, the chunks are non-empty, disjoint and cover `0..n`
    /// exactly once.
    #[test]
    fn concurrent_dispatches_cover_their_ranges() {
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            for threads in [1usize, 2, 8] {
                let flag = &flag;
                s.spawn(move || {
                    for n in [0i64, 1, 127, 128, 1000, 4096].repeat(5) {
                        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        parallel_for_chunks(threads, n, |r, _| {
                            if r.is_empty() || r.start < 0 || r.end > n {
                                flag.store(true, Ordering::Relaxed);
                            }
                            for i in r {
                                hits[i as usize].fetch_add(1, Ordering::Relaxed);
                            }
                        });
                        if hits.iter().any(|h| h.load(Ordering::Relaxed) != 1) {
                            flag.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(
            !flag.load(Ordering::Relaxed),
            "a concurrent job lost, repeated or overran indices"
        );
    }
}
