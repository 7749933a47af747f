//! Execution instrumentation, including the checked-mode sanitizer's
//! structured diagnostics (one per obligation the sanitizer re-proves;
//! block merges are guarded differentially and have none), the count of
//! lambda-map elements that ran one at a time instead of in a strip, and
//! the count of loop iterations that ran one instruction at a time.

use crate::store::MemStore;
use std::time::Duration;

/// One sanitizer finding from a `Mode::Checked` run. Every variant names
/// the statement involved, the cell's flat offset in its memory block,
/// and the index function(s) through which the cell was addressed —
/// enough to debug a fuzzer counterexample without a rerun.
#[derive(Clone, Debug)]
pub enum Diagnostic {
    /// A statement read a cell no statement ever wrote, in a block that
    /// was recycled without zero-filling (validates the store's zero-fill
    /// elision: the compiler promised the block is fully written first).
    UninitRead {
        /// Name bound by the reading statement.
        stm: String,
        block: usize,
        /// Flat element offset within the block.
        offset: i64,
        /// Index function of the read.
        ixfn: String,
    },
    /// A statement read a cell of a block the release plan had already
    /// returned to the free list (the plan claimed its last use passed).
    UseAfterRelease {
        stm: String,
        block: usize,
        offset: i64,
        ixfn: String,
        /// Name bound by the statement after which the block was released.
        released_after: String,
    },
    /// Two different iterations of one parallel map wrote the same cell —
    /// their write footprints were supposed to be disjoint rows.
    MapRace {
        /// Name bound by the map statement.
        stm: String,
        block: usize,
        offset: i64,
        iter_a: i64,
        iter_b: i64,
        /// Index function of the map's result.
        ixfn: String,
    },
    /// The pre-dispatch re-proof of a `par_safety`-approved map found two
    /// iterations whose concrete write footprints share a cell: the
    /// symbolic chunk-disjointness verdict was wrong (or forced). The map
    /// was executed serially instead.
    ParOverlap {
        /// Name bound by the map statement.
        stm: String,
        block: usize,
        offset: i64,
        iter_a: i64,
        iter_b: i64,
        /// Index function of the map's result.
        ixfn: String,
    },
    /// A gather read or scatter write presented a runtime index outside
    /// the addressed array's extent. Checked mode records the finding and
    /// continues (the access is skipped); the unchecked evaluators abort
    /// with an error instead.
    IndexOutOfBounds {
        /// Name bound by the gather/scatter statement.
        stm: String,
        /// Position in the index array holding the offending index.
        lane: i64,
        /// The out-of-range index value that was read.
        index: i64,
        /// Number of addressable elements in the array the index targets.
        extent: i64,
    },
    /// A short-circuited construction's concrete write footprint
    /// intersects a recorded later-use footprint of the destination
    /// memory — the symbolic non-overlap verdict was wrong (or forced).
    CircuitOverlap {
        /// Root array of the short-circuited web.
        root: String,
        /// Name bound by the circuit-point statement.
        stm: String,
        /// Smallest flat offset common to both footprints.
        offset: i64,
        /// Concrete LMAD the web writes through.
        write_ixfn: String,
        /// Concrete LMAD of the conflicting destination use.
        use_ixfn: String,
    },
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnostic::UninitRead {
                stm,
                block,
                offset,
                ixfn,
            } => write!(
                f,
                "uninitialized read: {stm} read never-written cell {offset} of recycled \
                 block #{block} via {ixfn}"
            ),
            Diagnostic::UseAfterRelease {
                stm,
                block,
                offset,
                ixfn,
                released_after,
            } => write!(
                f,
                "use after release: {stm} read cell {offset} of block #{block} via {ixfn}, \
                 but the plan released the block after {released_after}"
            ),
            Diagnostic::MapRace {
                stm,
                block,
                offset,
                iter_a,
                iter_b,
                ixfn,
            } => write!(
                f,
                "map race: iterations {iter_a} and {iter_b} of {stm} both write cell \
                 {offset} of block #{block} (result index function {ixfn})"
            ),
            Diagnostic::ParOverlap {
                stm,
                block,
                offset,
                iter_a,
                iter_b,
                ixfn,
            } => write!(
                f,
                "parallel overlap: iterations {iter_a} and {iter_b} of {stm} would both write \
                 cell {offset} of block #{block} (result index function {ixfn}); the \
                 parallel-safety verdict was wrong and the map ran serially"
            ),
            Diagnostic::IndexOutOfBounds {
                stm,
                lane,
                index,
                extent,
            } => write!(
                f,
                "index out of bounds: {stm} read runtime index {index} (lane {lane}) against \
                 an extent of {extent} elements; the access was skipped"
            ),
            Diagnostic::CircuitOverlap {
                root,
                stm,
                offset,
                write_ixfn,
                use_ixfn,
            } => write!(
                f,
                "short-circuit overlap: eliding {root} at {stm} writes {write_ixfn}, which \
                 intersects destination use {use_ixfn} at offset {offset}"
            ),
        }
    }
}

/// Whether a [`Stats`] field shows up in [`Stats::counters`]: integer
/// counters do; timers, flags and the diagnostics list do not.
trait AsCounter {
    fn as_counter(&self) -> Option<u64> {
        None
    }
}
impl AsCounter for u64 {
    fn as_counter(&self) -> Option<u64> {
        Some(*self)
    }
}
impl AsCounter for Duration {}
impl AsCounter for bool {}
impl AsCounter for Vec<Diagnostic> {}

/// The one `Stats` field table: `name: type, aggregation, source`. From
/// it come the struct, [`Stats::merge`] (`sum`, `max`, `and`, `append`),
/// [`Stats::counters`], and — for `store` rows, which mirror the
/// [`MemStore`] counter of the same name — the per-run reset and
/// copy-back in `execute_plan`. A new field cannot be added without
/// deciding how it aggregates.
macro_rules! stats_table {
    ($($(#[$doc:meta])* $f:ident: $t:ty, $agg:ident, $src:ident;)*) => {
        /// Counters and timers collected by one program execution. The
        /// benchmark tables are computed from wall time; the byte counters
        /// let tests assert the *mechanism* (short-circuiting removed this
        /// many copied bytes), not just the symptom.
        #[derive(Clone, Debug, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $f: $t,)*
        }

        impl Stats {
            /// Fold another run's figures into this accumulator — the
            /// server's per-tenant and global aggregation. Counters and
            /// durations sum; `peak_bytes_live` takes the max (runs against
            /// one store are sequential, so the peak-of-peaks is the store's
            /// true high-water mark); diagnostics append; `plan_cache_hit`
            /// ANDs (true only if *every* merged run was answered from the
            /// cache).
            pub fn merge(&mut self, other: &Stats) {
                $(stats_table!(@$agg self.$f, other.$f);)*
            }

            /// Every integer counter as `(field name, value)`, in table
            /// order — what the bench harness prints and serializes.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($f), self.$f.as_counter())),*]
                    .into_iter()
                    .filter_map(|(name, v)| v.map(|v| (name, v)))
            }

            /// Start the store's counters over, so only the program body
            /// is measured (the peak restarts from the loaded inputs).
            pub(crate) fn begin_body(store: &mut MemStore) {
                $(stats_table!(@reset $src store.$f);)*
                store.reset_peak();
            }

            /// Copy the store's body-only counters onto this run's stats.
            pub(crate) fn take_store_counters(&mut self, store: &MemStore) {
                $(stats_table!(@take $src self.$f, store.$f);)*
            }
        }
    };
    (@sum $a:expr, $b:expr) => { $a += $b };
    (@max $a:expr, $b:expr) => { $a = $a.max($b) };
    (@and $a:expr, $b:expr) => { $a = $a && $b };
    (@append $a:expr, $b:expr) => { $a.extend($b.iter().cloned()) };
    (@reset store $c:expr) => { $c = 0 };
    (@reset run $c:expr) => {};
    (@take store $a:expr, $b:expr) => { $a = $b };
    (@take run $a:expr, $b:expr) => {};
}

stats_table! {
    /// Bytes allocated by `alloc` statements and temporaries.
    bytes_allocated: u64, sum, store;
    num_allocs: u64, sum, store;
    /// Allocations served from the store's free list (last-use driven
    /// recycling) instead of the heap.
    blocks_reused: u64, sum, store;
    /// Bytes of zero-fill skipped because the block was recycled.
    bytes_zeroing_elided: u64, sum, store;
    /// Always 0: no block leaves its store. Kept because `benchmark/` reads it.
    bytes_cross_tenant_scrubbed: u64, sum, run;
    /// High-water mark of bytes simultaneously live in the store during
    /// the program body (inputs included) — the quantity block merging
    /// reduces.
    peak_bytes_live: u64, max, store;
    /// Memory blocks the merge pass folded into another allocation (a
    /// compile-time property of the executed plan).
    blocks_merged: u64, sum, run;
    /// Carried releases that fired: a loop's dead ping-pong block was
    /// returned to the free list inside the body instead of living to
    /// the end-of-run sweep (the merge pass's `CarriedRelease` records,
    /// guarded concretely per iteration).
    carried_releases: u64, sum, run;
    /// Always 0: there are no color slabs. Kept because `benchmark/` reads it.
    color_slab_hits: u64, sum, run;
    /// Map statements that fanned out onto pool worker threads (small
    /// trip counts run inline and are not counted).
    pool_dispatches: u64, sum, run;
    /// Kernel mapnests that executed **parallel and in place**: dispatched
    /// to the pool writing their result memory directly, under a
    /// `par_safety` proof, with no private-row buffer.
    maps_parallel_in_place: u64, sum, run;
    /// Work-stealing chunks claimed across all pool dispatches.
    par_chunks: u64, sum, run;
    /// Chunks claimed by a worker other than the dispatching thread.
    par_chunks_stolen: u64, sum, run;
    /// Per-dispatch worker utilization, summed: participants that claimed
    /// at least one chunk…
    par_workers_engaged: u64, sum, run;
    /// …out of the worker slots offered to those dispatches.
    par_workers_offered: u64, sum, run;
    /// Checked mode: `par_safety`-approved maps whose pre-dispatch
    /// concrete enumeration confirmed chunk-wise disjoint writes.
    par_checks_verified: u64, sum, run;
    /// Bytes moved by update/concat copies and mapnest result copies.
    bytes_copied: u64, sum, run;
    num_copies: u64, sum, run;
    /// Bytes whose copy was *elided* by short-circuiting.
    bytes_elided: u64, sum, run;
    num_elided: u64, sum, run;
    /// Kernel instances launched.
    kernel_launches: u64, sum, run;
    /// Lambda-map elements a `Memory` / `Checked` run evaluated one at a
    /// time instead of in a strip: maps with an ineligible body, executions
    /// whose operands had no lane type or whose result shares a block
    /// with an input it is not, strips in which a lane had no value.
    lambda_elems_elementwise: u64, sum, run;
    /// Loop iterations a `Memory` run stepped instead of running at width 1
    /// in the strips: bodies not scalar code and point accesses, entries
    /// whose operands had no type or whose arrays move or are not one LMAD.
    loop_iters_stepped: u64, sum, run;
    /// Time spent inside kernels / lambda bodies.
    kernel_time: Duration, sum, run;
    /// Time spent in copies the optimizer targets.
    copy_time: Duration, sum, run;
    /// Total execution wall time of the program body.
    total_time: Duration, sum, run;
    /// Checked mode: shadow cells marked or inspected.
    cells_checked: u64, sum, run;
    /// Checked mode: short-circuit checks whose recorded footprints all
    /// evaluated to concrete LMADs and came out conflict-free (every
    /// write × later-use pair disjoint; vacuously so when the optimizer
    /// recorded no later uses). Counted per execution of the circuit
    /// statement's block, so loop-scoped circuits count per iteration.
    circuits_verified: u64, sum, run;
    /// Checked mode: checks skipped, a footprint unevaluated or too large.
    circuits_skipped: u64, sum, run;
    /// Checked mode: sanitizer findings (empty on a clean run).
    diagnostics: Vec<Diagnostic>, append, run;
    /// Diagnostics dropped beyond the per-run cap.
    diagnostics_suppressed: u64, sum, run;
    /// Whether this run's plan came from the plan cache: false for the
    /// one run that reports a lowering (the harness asserts warm runs
    /// never re-lower).
    plan_cache_hit: bool, and, run;
    /// Time spent lowering the plan this run executed, reported by one
    /// run per lowering (zero on a cache hit), so sums count it once.
    plan_build_time: Duration, sum, run;
}
