//! The sharded, shareable plan cache.
//!
//! A lowered [`ExecPlan`] is a pure function of (program, kernel name
//! table, check/merge/par-safety record sets) — plain data with no
//! interior mutability, so one `Arc<ExecPlan>` can serve every client
//! that presents the same fingerprint tuple. This module turns that
//! observation into the server's compile-once/execute-everywhere story:
//!
//! - **Sharding**: the key space is split across `N` independent
//!   `RwLock`-protected maps, so concurrent *hits* (the steady state of a
//!   serving system) never contend on one lock. A hit takes one shared
//!   read lock on one shard.
//! - **Single-flight builds**: when a stampede of identical requests
//!   misses simultaneously, exactly one caller lowers the plan; the rest
//!   park on the shard's condvar and adopt the winner's `Arc`. Coalesced
//!   waiters count as `cache_hits` *and* as `stampedes_coalesced` — the
//!   dedicated counter tests assert on. If the build fails, waiters are
//!   woken and retry (one becomes the next builder), so a failing
//!   program cannot wedge a shard.
//!
//! [`Session`](crate::Session) is the single-tenant special case: it owns
//! a private single-shard cache unless constructed over a shared one.

use crate::kernel::KernelRegistry;
use crate::plan::{lower_plan_full, ExecPlan};
use crate::vm::catch_panic;
use arraymem_core::{CircuitCheck, MergeRecord, ParSafetyRecord};
use arraymem_ir::Program;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Cumulative plan-preparation accounting for a cache (and therefore for
/// every session/tenant sharing it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Plans actually lowered (cache misses that won the build race).
    pub builds: u64,
    /// `prepare` calls answered with an already-lowered plan — including
    /// coalesced stampede waiters.
    pub cache_hits: u64,
    /// Total time spent lowering (cache misses only).
    pub build_time: Duration,
    /// Requests that arrived while an identical build was in flight and
    /// adopted its result instead of lowering again.
    pub stampedes_coalesced: u64,
}

/// Outcome of one [`PlanCache::prepare_full`] call, for stamping onto the
/// run's [`Stats`](crate::Stats).
#[derive(Clone, Copy, Debug)]
pub struct PrepareOutcome {
    /// The request's cache key (see [`PlanCache::key`]).
    pub key: u64,
    /// Answered without lowering (plain hit or coalesced stampede).
    pub hit: bool,
    /// This call waited out another caller's in-flight build.
    pub coalesced: bool,
    /// Lowering time, when this call built (zero otherwise).
    pub build_time: Duration,
}

struct Shard {
    plans: RwLock<HashMap<u64, Arc<ExecPlan>>>,
    /// Keys with a build in flight; guarded separately from `plans` so
    /// waiters never hold the read path hostage.
    building: Mutex<HashSet<u64>>,
    done: Condvar,
}

/// A sharded map from fingerprint keys to lowered plans, safe to share
/// across threads and tenants. See the module docs.
pub struct PlanCache {
    shards: Vec<Shard>,
    /// Shard index mask (`shards.len()` is a power of two).
    mask: u64,
    builds: AtomicU64,
    cache_hits: AtomicU64,
    stampedes_coalesced: AtomicU64,
    build_nanos: AtomicU64,
    /// Test hook: runs inside the single-flight critical section, before
    /// lowering. Lets tests hold a build open deterministically.
    #[doc(hidden)]
    pub build_hook: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(16)
    }
}

impl PlanCache {
    /// A cache with at least `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> PlanCache {
        let n = shards.max(1).next_power_of_two();
        PlanCache {
            shards: (0..n)
                .map(|_| Shard {
                    plans: RwLock::new(HashMap::new()),
                    building: Mutex::new(HashSet::new()),
                    done: Condvar::new(),
                })
                .collect(),
            mask: (n - 1) as u64,
            builds: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            stampedes_coalesced: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
            build_hook: None,
        }
    }

    /// Total plans currently cached (sums every shard; takes each read
    /// lock briefly).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.plans.read().unwrap().len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> PlanStats {
        PlanStats {
            builds: self.builds.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            build_time: Duration::from_nanos(self.build_nanos.load(Ordering::Relaxed)),
            stampedes_coalesced: self.stampedes_coalesced.load(Ordering::Relaxed),
        }
    }

    /// The cache key for a prepare request: the program's structural
    /// fingerprint, the kernel registry's name table, and the three
    /// runtime-obligation record sets. Thread count is deliberately *not*
    /// part of the key — plans are thread-agnostic.
    pub fn key(
        prog: &Program,
        kernels: &KernelRegistry,
        checks: &[CircuitCheck],
        merges: &[MergeRecord],
        par: &[ParSafetyRecord],
    ) -> u64 {
        arraymem_core::combine_fingerprints(&[
            arraymem_core::fingerprint(prog),
            kernels.fingerprint(),
            arraymem_core::fingerprint_items(checks),
            arraymem_core::fingerprint_items(merges),
            arraymem_core::fingerprint_items(par),
        ])
    }

    /// Look up or lower the plan for a prepare request. At most one
    /// caller per key lowers; concurrent identical requests coalesce.
    pub fn prepare_full(
        &self,
        prog: &Program,
        kernels: &KernelRegistry,
        checks: &[CircuitCheck],
        merges: &[MergeRecord],
        par: &[ParSafetyRecord],
    ) -> Result<(Arc<ExecPlan>, PrepareOutcome), String> {
        let key = Self::key(prog, kernels, checks, merges, par);
        let shard = &self.shards[(key & self.mask) as usize];
        // Fast path: shared read lock, no allocation.
        if let Some(plan) = shard.plans.read().unwrap().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((
                Arc::clone(plan),
                PrepareOutcome {
                    key,
                    hit: true,
                    coalesced: false,
                    build_time: Duration::ZERO,
                },
            ));
        }
        let mut coalesced = false;
        loop {
            // Decide between building and waiting under the shard's
            // single-flight lock.
            {
                let mut building = shard.building.lock().unwrap();
                // Re-check under the lock: a build may have completed
                // between the read above and here.
                if let Some(plan) = shard.plans.read().unwrap().get(&key) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((
                        Arc::clone(plan),
                        PrepareOutcome {
                            key,
                            hit: true,
                            coalesced,
                            build_time: Duration::ZERO,
                        },
                    ));
                }
                if building.contains(&key) {
                    // An identical build is in flight: park until it
                    // publishes (or fails), then re-loop. Counted at wait
                    // entry — the counter means "requests that arrived
                    // during an identical in-flight build".
                    if !coalesced {
                        coalesced = true;
                        self.stampedes_coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    while building.contains(&key) {
                        building = shard.done.wait(building).unwrap();
                    }
                    continue;
                }
                building.insert(key);
            }
            // We are the builder; lowering happens outside every lock.
            if let Some(hook) = &self.build_hook {
                hook();
            }
            let t0 = Instant::now();
            // A panic while lowering is this build's failure: the key
            // must leave `building` below, or its waiters park forever.
            let result = catch_panic("lowering", || {
                lower_plan_full(prog, kernels, checks, merges, par)
            });
            let dt = t0.elapsed();
            let published = result.map(|plan| {
                let plan = Arc::new(plan);
                shard.plans.write().unwrap().insert(key, Arc::clone(&plan));
                plan
            });
            {
                let mut building = shard.building.lock().unwrap();
                building.remove(&key);
                shard.done.notify_all();
            }
            return published.map(|plan| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                self.build_nanos
                    .fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
                (
                    plan,
                    PrepareOutcome {
                        key,
                        hit: false,
                        coalesced,
                        build_time: dt,
                    },
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arraymem_ir::builder::Builder;
    use arraymem_symbolic::Poly;

    fn prog(n: i64) -> Program {
        let b = Builder::new("cache_test");
        let mut bb = b.block();
        let a = bb.iota("a", Poly::constant(n));
        let body = bb.finish(vec![a]);
        b.finish(body)
    }

    #[test]
    fn hit_returns_the_same_plan() {
        let cache = PlanCache::new(4);
        let kernels = KernelRegistry::new();
        let p = prog(8);
        let (a, o1) = cache
            .prepare_full(&p, &kernels, &[], &[], &[])
            .expect("lower");
        let (b, o2) = cache
            .prepare_full(&p, &kernels, &[], &[], &[])
            .expect("lower");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!o1.hit);
        assert!(o2.hit);
        let s = cache.stats();
        assert_eq!((s.builds, s.cache_hits, s.stampedes_coalesced), (1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_programs_build_distinct_plans() {
        let cache = PlanCache::new(1);
        let kernels = KernelRegistry::new();
        cache
            .prepare_full(&prog(8), &kernels, &[], &[], &[])
            .expect("lower");
        cache
            .prepare_full(&prog(9), &kernels, &[], &[], &[])
            .expect("lower");
        assert_eq!(cache.stats().builds, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(PlanCache::new(0).shards.len(), 1);
        assert_eq!(PlanCache::new(3).shards.len(), 4);
        assert_eq!(PlanCache::new(16).shards.len(), 16);
    }
}
