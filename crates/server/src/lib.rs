//! The multi-tenant execution server.
//!
//! `Session` (crates/exec) is one tenant, one store, one thread. This
//! crate serves the same compiled-plan universe to many concurrent
//! clients by composing the exec crate's layers:
//!
//! - one **shared [`PlanCache`]** (sharded, single-flight) — a program
//!   any tenant has prepared executes everywhere without re-lowering;
//! - one **[`SharedArena`]** under per-tenant [`MemStore`]s — block
//!   recycling and zero-fill elision work across tenants, with
//!   cross-tenant buffers scrubbed so no tenant observes another's
//!   bytes (and shadow provenance still firing in checked mode);
//! - an **admission controller** in front: `max_in_flight` execution
//!   permits, a bounded FIFO overflow queue with depth/wait metrics,
//!   and typed rejection ([`ServerError::Overloaded`]) when full;
//! - per-tenant **[`Stats`] aggregation** ([`Stats::merge`]) queryable
//!   per tenant ([`Server::tenant_stats`]) or fleet-wide
//!   ([`Server::global_stats`]).
//!
//! Requests from one tenant serialize on that tenant's store; requests
//! from different tenants execute concurrently, and so do their parallel
//! maps (each dispatch runs on its own scoped workers). A panic while
//! lowering or executing is that request's typed error: it never unwinds
//! through the tenant's lock or leaves a plan-cache build in flight.
//!
//! ```
//! use arraymem_core::{compile, Options};
//! use arraymem_exec::{KernelRegistry, Mode};
//! use arraymem_ir::builder::Builder;
//! use arraymem_server::{ExecRequest, Server, ServerConfig};
//! use arraymem_symbolic::Poly;
//!
//! let mut b = Builder::new("quickstart");
//! let mut bb = b.block();
//! let xs = bb.iota("xs", Poly::constant(8));
//! let body = bb.finish(vec![xs]);
//! let prog = b.finish(body);
//! let compiled = compile(&prog, &Options::optimized()).expect("compile");
//! let checks: Vec<_> = compiled.report.checks().cloned().collect();
//!
//! let server = Server::new(ServerConfig::default());
//! let kernels = KernelRegistry::new();
//! let req = ExecRequest::from_compiled(&compiled, &kernels, &checks, &[], Mode::Memory);
//! let (out, stats) = server.execute("tenant-a", req).expect("admitted and executed");
//! assert_eq!(out.len(), 1);
//! assert!(!stats.plan_cache_hit); // first request lowered the plan
//! let (_, warm) = server.execute("tenant-b", req).expect("second tenant");
//! assert!(warm.plan_cache_hit); // …which now serves every tenant
//! ```

mod admission;

pub use admission::AdmissionMetrics;

use admission::Admission;
use arraymem_core::{CircuitCheck, Compiled, MergeRecord, ParSafetyRecord};
use arraymem_exec::{
    execute_plan, ArenaStats, InputValue, KernelRegistry, MemStore, Mode, OutputValue, PlanCache,
    PlanStats, SharedArena, Stats,
};
use arraymem_ir::Program;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Server tuning knobs. The defaults serve tests and small fleets; the
/// bench harness overrides them per sweep.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Plan-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Executions allowed to run simultaneously.
    pub max_in_flight: usize,
    /// Requests allowed to wait for a permit before rejection sets in.
    pub queue_depth: usize,
    /// Worker threads offered to each execution's parallel maps (each
    /// dispatch spawns its own scoped workers, so tenants' maps run
    /// concurrently).
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_shards: 16,
            max_in_flight: 4,
            queue_depth: 64,
            threads: 1,
        }
    }
}

/// Typed failure of [`Server::execute`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// Admission control turned the request away: every execution slot
    /// was busy and the overflow queue was full.
    Overloaded {
        /// Executions in flight at the moment of rejection.
        in_flight: usize,
        /// Requests already waiting at the moment of rejection.
        queued: usize,
    },
    /// Lowering the program into a plan failed.
    Prepare(String),
    /// The execution itself failed.
    Execution(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Overloaded { in_flight, queued } => write!(
                f,
                "server overloaded: {in_flight} executions in flight, {queued} queued"
            ),
            ServerError::Prepare(e) => write!(f, "plan preparation failed: {e}"),
            ServerError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// One execution request: a program plus the compile report's runtime
/// obligations, the inputs, and the mode. Borrowed — a request is cheap
/// to build per call while programs/kernels/records live elsewhere.
#[derive(Clone, Copy)]
pub struct ExecRequest<'a> {
    pub program: &'a Program,
    pub kernels: &'a KernelRegistry,
    pub checks: &'a [CircuitCheck],
    pub merges: &'a [MergeRecord],
    pub par: &'a [ParSafetyRecord],
    pub inputs: &'a [InputValue],
    pub mode: Mode,
}

impl<'a> ExecRequest<'a> {
    /// A request carrying a compile's merge and par-safety records
    /// (checked-mode callers pass the collected circuit checks too —
    /// `Report::checks` yields borrows, so the caller owns the `Vec`).
    pub fn from_compiled(
        compiled: &'a Compiled,
        kernels: &'a KernelRegistry,
        checks: &'a [CircuitCheck],
        inputs: &'a [InputValue],
        mode: Mode,
    ) -> ExecRequest<'a> {
        ExecRequest {
            program: &compiled.program,
            kernels,
            checks,
            merges: &compiled.report.merges,
            par: &compiled.report.par_safety,
            inputs,
            mode,
        }
    }
}

/// Per-tenant aggregate returned by [`Server::tenant_stats`] /
/// [`Server::global_stats`].
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Executions completed successfully.
    pub runs: u64,
    /// Their merged [`Stats`] (see [`Stats::merge`] for the semantics of
    /// each field under aggregation).
    pub stats: Stats,
    /// The shared arena's byte high-water across **every** tenant
    /// ([`ArenaStats::peak_bytes_live`]). Populated by
    /// [`Server::global_stats`] only (per-tenant views report 0).
    /// Tenants execute concurrently against one arena, so this can
    /// exceed `stats.peak_bytes_live` — which is a *max over tenants*
    /// and blind to tenants peaking together.
    pub arena_peak_bytes_live: u64,
}

struct Tenant {
    /// Serializes the tenant's executions (the store is single-threaded
    /// state; different tenants' mutexes are independent).
    state: Mutex<TenantState>,
}

struct TenantState {
    store: MemStore,
    agg: TenantStats,
}

/// The multi-tenant front door. See the crate docs.
pub struct Server {
    config: ServerConfig,
    cache: PlanCache,
    arena: SharedArena,
    admission: Admission,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

impl Default for Server {
    fn default() -> Server {
        Server::new(ServerConfig::default())
    }
}

impl Server {
    pub fn new(config: ServerConfig) -> Server {
        Server {
            config,
            cache: PlanCache::new(config.cache_shards),
            arena: SharedArena::new(),
            admission: Admission::new(config.max_in_flight, config.queue_depth),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        // Tenants are never removed, so the count names a new one.
        let tag = tenants.len() as u64 + 1;
        let mut store = MemStore::new();
        store.attach_arena(self.arena.clone(), tag);
        let mut agg = TenantStats::default();
        // `plan_cache_hit` aggregates by AND; the empty accumulator must
        // start true for that to mean "every run hit".
        agg.stats.plan_cache_hit = true;
        let t = Arc::new(Tenant {
            state: Mutex::new(TenantState { store, agg }),
        });
        tenants.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Execute one request for `tenant`, blocking through admission
    /// control and the tenant's store lock. Returns the program outputs
    /// and this run's [`Stats`] (also folded into the tenant aggregate).
    pub fn execute(
        &self,
        tenant: &str,
        req: ExecRequest,
    ) -> Result<(Vec<OutputValue>, Stats), ServerError> {
        let _permit = self
            .admission
            .acquire()
            .map_err(|o| ServerError::Overloaded {
                in_flight: o.in_flight,
                queued: o.queued,
            })?;
        let (plan, outcome) = self
            .cache
            .prepare_full(req.program, req.kernels, req.checks, req.merges, req.par)
            .map_err(ServerError::Prepare)?;
        let tenant = self.tenant(tenant);
        let mut st = tenant.state.lock().unwrap();
        let result = execute_plan(
            &mut st.store,
            &plan,
            req.inputs,
            req.kernels,
            req.mode,
            self.config.threads,
        );
        let (out, mut stats) = result.map_err(ServerError::Execution)?;
        stats.plan_cache_hit = outcome.hit;
        stats.plan_build_time = outcome.build_time;
        st.agg.runs += 1;
        st.agg.stats.merge(&stats);
        // End-of-run blocks feed the arena so any tenant's next
        // allocation can recycle them.
        st.store.donate_free_blocks();
        Ok((out, stats))
    }

    /// The merged stats of one tenant (None if it never executed).
    pub fn tenant_stats(&self, name: &str) -> Option<TenantStats> {
        let t = Arc::clone(self.tenants.lock().unwrap().get(name)?);
        let agg = t.state.lock().unwrap().agg.clone();
        Some(agg)
    }

    /// Every tenant name the server has seen, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// The fleet-wide aggregate: every tenant's stats merged.
    pub fn global_stats(&self) -> TenantStats {
        let tenants = self.tenants.lock().unwrap();
        let mut g = TenantStats {
            runs: 0,
            stats: Stats {
                plan_cache_hit: true,
                ..Stats::default()
            },
            arena_peak_bytes_live: self.arena.stats().peak_bytes_live,
        };
        for t in tenants.values() {
            let st = t.state.lock().unwrap();
            g.runs += st.agg.runs;
            g.stats.merge(&st.agg.stats);
        }
        if g.runs == 0 {
            g.stats.plan_cache_hit = false;
        }
        g
    }

    /// The shared plan cache's accounting (builds, hits, coalesced
    /// stampedes).
    pub fn plan_stats(&self) -> PlanStats {
        self.cache.stats()
    }

    /// The cross-tenant arena's accounting.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Admission-control counters (admitted/rejected/queued, queue depth
    /// and wait).
    pub fn admission_metrics(&self) -> AdmissionMetrics {
        self.admission.metrics()
    }

    /// Instantaneous admission load: (executions in flight, requests
    /// queued).
    pub fn load(&self) -> (usize, usize) {
        self.admission.load()
    }
}
