//! The plan executor.
//!
//! Programs are not interpreted from the IR tree: [`Session::prepare_full`]
//! lowers a compiled program once into a flat [`ExecPlan`] (see
//! [`crate::plan`]) and caches it by a structural fingerprint;
//! [`Session::run_plan`] then replays the instruction stream against a
//! dense register file. The hot loop performs **no** hash map lookups —
//! operands are pre-resolved slots — and no per-run release-plan
//! analysis: release sites are instructions in the stream.
//!
//! **Registers are words.** A slot of the register file is a `Copy`
//! [`Value`] — a scalar or a block id; arrays live in a table beside it,
//! one entry per array-typed slot, each a block id plus a *shared* index
//! function. Nothing on a per-element path touches the heap: scalar code
//! runs at width 1 in one loop ([`Machine::eval`]) over a value scratch
//! reused on the machine; `a[i, j]` and `a[i, j] = x` check their
//! coordinates against the array's shape and address one word through
//! the index function, no view built; a lambda map resolves its element
//! access once per map; gather and scatter pick their lane loop — index
//! array as a slice or not, sanitizer on or off — once per instruction.
//!
//! **Scalar code runs typed.** A lambda map whose body is a straight line
//! of arithmetic (in `Memory` and `Checked`) and a loop of scalar code and
//! point accesses (in `Memory`; the plan records why another is not) run
//! that code typed once per entry ([`crate::strip`]): a map in strips of
//! its width, a loop once per iteration at width 1. What does not type
//! falls back to the element-wise or the instruction loop — all `Pure`,
//! the oracle, ever runs — and every error is the evaluator's own. Gather
//! and scatter lanes outside the sanitizer prove a strip of indices in
//! range, then only move; a strip with a stray index goes through the
//! lane loop, which reports it.
//!
//! Three modes share one plan:
//!
//! - [`Mode::Memory`]: obeys the compiler's memory annotations — `alloc`
//!   statements create blocks, fresh arrays are constructed through their
//!   (possibly rebased) index functions, elided updates/concats are
//!   no-ops, and non-in-place mapnests pay the per-instance private-row
//!   copy (the implicit copy of §V-A(e)). Kernel mapnests dispatch onto
//!   the work-stealing pool ([`crate::pool`]) under the `par_safety`
//!   stage's verdict: `Safe` maps run parallel writing their result
//!   memory directly, `NeedsBuffer` maps run parallel through private
//!   row buffers, and `Serial` maps (direct writes with unproven
//!   disjointness) are serialized. A map lowered without its record is
//!   held to the conservative verdict, never trusted.
//! - [`Mode::Pure`]: direct functional value semantics — every operation
//!   materializes a fresh dense array and annotations are ignored. This is
//!   the semantic ground truth: the paper's invariant that deleting memory
//!   annotations does not change program meaning is checked by comparing
//!   the two modes.
//! - [`Mode::Checked`]: `Memory` semantics plus a shadow-memory sanitizer
//!   that dynamically validates what the optimizer's static reasoning
//!   promised: no read of a never-written cell in a recycled block (the
//!   zero-fill elision's obligation), no read of a released block (the
//!   last-use plan's obligation), no two map iterations writing one cell
//!   (the in-place mapnest's obligation), and — for the circuit checks
//!   lowered into the plan — concrete disjointness of every footprint
//!   pair a short-circuit's symbolic non-overlap test approved. Block
//!   merges are not on this list: a `Share` merge rests on disjoint live
//!   ranges alone, and what guards it is the merge-on/off differential
//!   against [`Mode::Pure`], not a re-proof here (carried releases are
//!   covered — a released block's cells read as use-after-release).
//!   Mapnests the `par_safety` stage proved safe are **not** serialized:
//!   their chunk disjointness is re-proved concretely by enumeration
//!   before each dispatch, and only a failed re-proof (reported as
//!   [`Diagnostic::ParOverlap`]) falls back to serial execution; maps
//!   without a proof run serially for deterministic diagnostics.
//!   Findings land in [`Stats::diagnostics`] rather than aborting, so one
//!   run reports all. Diagnostics name source statements via the plan's
//!   blame side table.

use crate::arith::{coerce, eval_bin, eval_un, truth};
use crate::cache::PlanCache;
use crate::kernel::{KernelCtx, KernelRegistry};
use crate::plan::{
    eval_all, eval_shape, Arg, Dest, ExecPlan, Instr, LExp, LSlice, LUpdateSrc, MapKernelInstr,
    MapLambdaInstr, Op, ParamSpec, Slot, Stream, UpdateInstr,
};
use crate::pool::parallel_for_worker;
use crate::stats::{Diagnostic, Stats};
use crate::store::{CellState, MemStore, RawBuf};
use crate::strip::{Strips, STRIP};
use crate::value::{ArrayRef, InputValue, OutputValue, Tag, Value};
use crate::view::{copy_view, fix_outer, move_lanes, View, ViewMut};
use arraymem_core::{CircuitCheck, MergeRecord, ParLevel, ParSafetyRecord};
use arraymem_ir::validate::lmad_slice_is_injective;
use arraymem_ir::{ElemType, Program, Type};
use arraymem_lmad::{
    footprint_check, ConcreteIxFn, ConcreteLmad, FootprintCheck, Transform, TripletSlice,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Obey memory annotations (requires a compiled program).
    Memory,
    /// Direct value semantics (works on any validated program).
    Pure,
    /// `Memory` semantics under the shadow-memory sanitizer (see the
    /// module docs). Mapnests with a `par_safety` proof run parallel
    /// after a concrete pre-dispatch re-proof; everything else runs
    /// serially under per-cell shadow tracking — expect a substantial
    /// slowdown. This mode exists for tests and fuzzing, not benchmarks.
    Checked,
}

/// Findings beyond this many per run are counted, not stored.
const MAX_DIAGNOSTICS: usize = 64;

/// Short-circuit footprints larger than this many points are skipped by
/// the runtime disjointness cross-check (enumeration would dominate), and
/// counted in [`Stats::circuits_skipped`].
pub(crate) const FOOTPRINT_CAP: i64 = 1 << 20;

/// A prepared plan in a [`Session`]'s cache. Cheap to copy; only valid
/// for the session that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanHandle(usize);

pub use crate::cache::PlanStats;

struct Machine<'a> {
    store: &'a mut MemStore,
    kernels: &'a KernelRegistry,
    /// Scalars and block ids, by slot.
    regs: Vec<Value>,
    /// Arrays, by slot: an array-typed slot's value is its entry here.
    arrays: Vec<Option<ArrayRef>>,
    /// The values of the scalar code in flight, the coordinates of the
    /// element it reads and of the point an update writes, and `CopySlots`'
    /// read phase: scratch reused across instructions, so none of them
    /// allocates once warm.
    vals: Vec<Value>,
    point: Vec<i64>,
    at: Vec<i64>,
    moved: Vec<Value>,
    moved_arrays: Vec<(Slot, ArrayRef)>,
    /// The typed code of the lambda map or loop in flight.
    strips: Strips,
    stats: Stats,
    threads: usize,
    mode: Mode,
    /// Checked mode: first pattern variable of the executing statement
    /// (from the plan's blame table) — write provenance for shadow marks,
    /// blame for diagnostics.
    cur_stm: Option<arraymem_ir::Var>,
}

/// A reusable execution context owning the memory store and a view onto
/// a plan cache. Running several programs (or the same program
/// repeatedly, as the benchmark harness does) through one session
/// recycles every block of run *n* into the allocations of run *n+1* via
/// the store's free lists, and compiles + lowers each distinct program
/// exactly once.
///
/// A session is the single-tenant special case of the server layering:
/// it owns a private single-shard [`PlanCache`] where the server shares
/// one across tenants.
pub struct Session {
    /// Crate-visible so unit tests can count its blocks.
    pub(crate) store: MemStore,
    cache: PlanCache,
    /// Session-local handle table: `PlanHandle(i)` indexes here. Beside
    /// each plan, what lowering it took, until a run has reported it: the
    /// first run of a plan this session built carries the build time and
    /// `plan_cache_hit = false` on its [`Stats`]; every other run is a hit
    /// that cost nothing.
    handles: Vec<(Arc<ExecPlan>, Option<Duration>)>,
    by_key: HashMap<u64, usize>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    pub fn new() -> Session {
        Session {
            store: MemStore::new(),
            cache: PlanCache::new(1),
            handles: Vec::new(),
            by_key: HashMap::new(),
        }
    }

    /// Lower a compiled program and the records its compile produced —
    /// circuit checks (`Report::checks`), merge records (`Report::merges`)
    /// and parallel-safety records (`Report::par_safety`) — into an
    /// executable plan, or return the cached handle if a structurally
    /// identical request (same IR fingerprint, kernel registry and record
    /// sets) was prepared before. The records are the compiler→executor
    /// contract: merges carry the carried releases the plan executes,
    /// par-safety verdicts pick each kernel map's schedule, and the plan
    /// stamps `Stats::blocks_merged`.
    pub fn prepare_full(
        &mut self,
        prog: &Program,
        kernels: &KernelRegistry,
        checks: &[CircuitCheck],
        merges: &[MergeRecord],
        par: &[ParSafetyRecord],
    ) -> Result<PlanHandle, String> {
        let (plan, outcome) = self
            .cache
            .prepare_full(prog, kernels, checks, merges, par)?;
        let i = *self.by_key.entry(outcome.key).or_insert_with(|| {
            self.handles.push((plan, None));
            self.handles.len() - 1
        });
        if !outcome.hit {
            self.handles[i].1 = Some(outcome.build_time);
        }
        Ok(PlanHandle(i))
    }

    /// Cumulative prepare accounting of the session's cache (the harness
    /// asserts `cache_hits == runs - builds` per benchmarked case).
    pub fn plan_stats(&self) -> PlanStats {
        self.cache.stats()
    }

    /// The prepared plan behind a handle (pretty-printing, inspection).
    pub fn plan(&self, h: PlanHandle) -> &ExecPlan {
        &self.handles[h.0].0
    }

    /// Execute a prepared plan. `inputs` must match the parameter list.
    /// Returns the program results plus execution statistics (input
    /// loading and result extraction excluded).
    pub fn run_plan(
        &mut self,
        h: PlanHandle,
        inputs: &[InputValue],
        kernels: &KernelRegistry,
        mode: Mode,
        threads: usize,
    ) -> Result<(Vec<OutputValue>, Stats), String> {
        let plan = Arc::clone(&self.handles[h.0].0);
        let (out, mut stats) =
            execute_plan(&mut self.store, &plan, inputs, kernels, mode, threads)?;
        let built = self.handles[h.0].1.take();
        stats.plan_cache_hit = built.is_none();
        stats.plan_build_time = built.unwrap_or_default();
        Ok((out, stats))
    }
}

/// Execute a program in a one-shot [`Session`], lowered without compile
/// records: the `Mode::Pure` oracle, or a quick look at a program whose
/// kernel maps are then all scheduled conservatively.
pub fn run_program(
    prog: &Program,
    inputs: &[InputValue],
    kernels: &KernelRegistry,
    mode: Mode,
    threads: usize,
) -> Result<(Vec<OutputValue>, Stats), String> {
    let mut session = Session::new();
    let h = session.prepare_full(prog, kernels, &[], &[], &[])?;
    session.run_plan(h, inputs, kernels, mode, threads)
}

/// Run one plan against a store: load inputs, execute the stream, extract
/// results, release everything still live back to the free lists — after
/// a failed or panicking run too, a panic being the request's error. This is
/// the layer below [`Session`]: the server executes shared
/// `Arc<ExecPlan>`s against per-tenant stores through this entry point.
pub fn execute_plan(
    store: &mut MemStore,
    plan: &ExecPlan,
    inputs: &[InputValue],
    kernels: &KernelRegistry,
    mode: Mode,
    threads: usize,
) -> Result<(Vec<OutputValue>, Stats), String> {
    store.set_shadow(mode == Mode::Checked);
    let mut machine = Machine {
        store,
        kernels,
        regs: vec![Value::i64(0); plan.num_slots() as usize],
        arrays: vec![None; plan.num_slots() as usize],
        vals: Vec::new(),
        point: Vec::new(),
        at: Vec::new(),
        moved: Vec::new(),
        moved_arrays: Vec::new(),
        strips: Strips::default(),
        stats: Stats::default(),
        threads: threads.max(1),
        mode,
        cur_stm: None,
    };
    let result = catch_panic("execution", || machine.run(plan, inputs));
    // Results were deep-copied out, so everything the run allocated can
    // feed the next run's allocations. A failed run releases too: a
    // rejected request must not pin its tenant's memory.
    store.release_all_live();
    result
}

/// Run `f`, turning a panic inside it into `Err("<what> panicked: …")`:
/// the request's error, not an unwind through its caller's locks.
pub(crate) fn catch_panic<T>(
    what: &str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let text = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(no message)");
        Err(format!("{what} panicked: {text}"))
    })
}

/// A result array copied out into a dense vector, through the runtime's
/// one (tiered) copy routine.
fn download<T: Clone + Default>(src: &View, elem: ElemType) -> Vec<T> {
    let mut out = vec![T::default(); src.num_elems().max(0) as usize];
    let buf = RawBuf {
        ptr: out.as_mut_ptr() as *mut u8,
        len: out.len(),
        elem,
    };
    copy_view(
        &ViewMut::new(buf, ConcreteIxFn::row_major(&src.shape())),
        src,
    );
    out
}

impl Machine<'_> {
    /// `Memory` semantics? (`Checked` is `Memory` plus the sanitizer.)
    fn mem_like(&self) -> bool {
        matches!(self.mode, Mode::Memory | Mode::Checked)
    }

    fn checked(&self) -> bool {
        self.mode == Mode::Checked
    }

    /// Load inputs, execute the stream, extract the results.
    fn run(
        &mut self,
        plan: &ExecPlan,
        inputs: &[InputValue],
    ) -> Result<(Vec<OutputValue>, Stats), String> {
        if inputs.len() != plan.params.len() {
            return Err(format!(
                "expected {} inputs, got {}",
                plan.params.len(),
                inputs.len()
            ));
        }
        for (spec, input) in plan.params.iter().zip(inputs) {
            self.load_param(spec, input)?;
        }
        Stats::begin_body(self.store);
        let t0 = Instant::now();
        self.exec_stream(&plan.body)?;
        self.stats.total_time = t0.elapsed();
        self.stats.take_store_counters(self.store);
        self.stats.blocks_merged = plan.blocks_merged;
        let mut out = Vec::with_capacity(plan.results.len());
        for (slot, v) in &plan.results {
            self.cur_stm = Some(*v);
            out.push(self.extract(*slot));
        }
        Ok((out, std::mem::take(&mut self.stats)))
    }

    fn extract(&mut self, slot: Slot) -> OutputValue {
        let Some(a) = self.arrays[slot as usize].clone() else {
            let v = self.regs[slot as usize];
            return match v.tag() {
                Tag::I64 => OutputValue::I64(v.as_i64()),
                Tag::F32 => OutputValue::F32(v.as_f32()),
                Tag::F64 => OutputValue::F64(v.as_f64()),
                Tag::Bool => OutputValue::Bool(v.as_bool()),
                Tag::Mem => OutputValue::I64(0),
            };
        };
        // Result extraction is a read like any other: never-written or
        // already-released result cells are exactly what escapes to the
        // caller.
        self.check_read(a.block, &a.ixfn);
        let view = self.view(&a);
        match a.elem {
            ElemType::F32 => OutputValue::ArrayF32(download(&view, a.elem)),
            ElemType::F64 => OutputValue::ArrayF64(download(&view, a.elem)),
            ElemType::I64 | ElemType::Bool => OutputValue::ArrayI64(download(&view, a.elem)),
        }
    }

    fn load_param(&mut self, spec: &ParamSpec, input: &InputValue) -> Result<(), String> {
        let v = spec.var;
        self.regs[spec.slot as usize] = match (&spec.ty, input) {
            (Type::Scalar(ElemType::I64), InputValue::I64(x)) => Value::i64(*x),
            (Type::Scalar(ElemType::F32), InputValue::F32(x)) => Value::f32(*x),
            (Type::Scalar(ElemType::F64), InputValue::F64(x)) => Value::f64(*x),
            (Type::Scalar(ElemType::Bool), InputValue::Bool(x)) => Value::bool(*x),
            (Type::Array { elem, .. }, arr) => {
                let shape_c =
                    eval_shape(&spec.shape, &self.regs).map_err(|e| e.of("param shape"))?;
                let n = shape_c
                    .iter()
                    .try_fold(1i64, |n, &d| n.checked_mul(d).filter(|_| d >= 0))
                    .ok_or_else(|| format!("shape {shape_c:?} of {v} has no element count"))?;
                let len = match arr.array_bytes() {
                    Some((e, bytes)) if e == *elem => bytes.len() / e.size_bytes(),
                    _ => return Err(format!("input type mismatch for {v}")),
                };
                // A request's arrays come from outside: a wrong length is
                // the client's error, not a broken invariant.
                if len as i64 != n {
                    return Err(format!(
                        "input length mismatch for {v}: expected {n} elements, got {len}"
                    ));
                }
                let block = self.store.alloc_input(*elem, len, arr)?;
                // The parameter's memory block variable.
                if let Some(ms) = spec.mem_slot {
                    self.regs[ms as usize] = Value::mem(self.store.handle(block));
                }
                self.arrays[spec.slot as usize] = Some(ArrayRef::new(
                    block,
                    *elem,
                    ConcreteIxFn::row_major(&shape_c),
                ));
                return Ok(());
            }
            _ => return Err(format!("input mismatch for {v}")),
        };
        Ok(())
    }

    /// Record a sanitizer finding (capped; the overflow is counted).
    fn diag(&mut self, d: Diagnostic) {
        if self.stats.diagnostics.len() < MAX_DIAGNOSTICS {
            self.stats.diagnostics.push(d);
        } else {
            self.stats.diagnostics_suppressed += 1;
        }
    }

    /// Display name of the executing statement (diagnostic blame).
    fn stm_name(&self) -> String {
        match self.cur_stm {
            Some(v) => format!("{v}"),
            None => "<unknown>".to_string(),
        }
    }

    /// Shadow-mark every cell of `ixfn`'s footprint as written by the
    /// executing statement. No-op outside checked mode.
    fn mark_write(&mut self, block: usize, ixfn: &ConcreteIxFn) {
        if self.checked() {
            for off in ixfn.all_offsets() {
                self.mark_cell(block, off);
            }
        }
    }

    /// Check one cell's shadow state ahead of a read; emits at most one
    /// diagnostic. Returns `false` if the cell was unreadable.
    fn check_cell(&mut self, block: usize, off: i64, ixfn: &ConcreteIxFn) -> bool {
        self.stats.cells_checked += 1;
        if off < 0 || off as usize >= self.store.len(block) {
            return true; // the view's own bounds assert handles it
        }
        match self.store.shadow_cell(block, off as usize) {
            Some(CellState::Stale) => {
                let d = Diagnostic::UninitRead {
                    stm: self.stm_name(),
                    block,
                    offset: off,
                    ixfn: format!("{ixfn:?}"),
                };
                self.diag(d);
                false
            }
            Some(CellState::Released) => {
                let released_after = match self.store.shadow_released_by(block) {
                    Some(s) => format!("{s}"),
                    None => "<unrecorded site>".to_string(),
                };
                let d = Diagnostic::UseAfterRelease {
                    stm: self.stm_name(),
                    block,
                    offset: off,
                    ixfn: format!("{ixfn:?}"),
                    released_after,
                };
                self.diag(d);
                false
            }
            _ => true,
        }
    }

    /// Shadow-mark a single cell as written by the executing statement
    /// (scatter marks only the lanes that passed the bounds check). No-op
    /// outside checked mode.
    fn mark_cell(&mut self, block: usize, off: i64) {
        if !self.checked() {
            return;
        }
        let Some(writer) = self.cur_stm else { return };
        self.stats.cells_checked += 1;
        if off >= 0 && (off as usize) < self.store.len(block) {
            self.store.shadow_mark(block, off as usize, writer);
        }
    }

    /// Check every cell of a read footprint; stops at the first finding
    /// (one diagnostic per read site keeps reports legible). No-op outside
    /// checked mode.
    fn check_read(&mut self, block: usize, ixfn: &ConcreteIxFn) {
        if !self.checked() {
            return;
        }
        for off in ixfn.all_offsets() {
            if !self.check_cell(block, off, ixfn) {
                return;
            }
        }
    }

    /// The row-footprint enumeration behind both the map race detector
    /// and the parallel pre-dispatch re-proof: enumerate each iteration's
    /// write footprint (the result index function with the outer
    /// dimension fixed) and report — with the diagnostic `overlap(stm,
    /// ixfn, offset, iter_a, iter_b)` builds — the first cell two
    /// different iterations both write. Returns whether the rows are
    /// pairwise disjoint. The enumeration is thread-count independent, so
    /// a verdict at one thread count transfers to any other.
    fn rows_disjoint(
        &mut self,
        ixfn: &ConcreteIxFn,
        width: i64,
        overlap: impl FnOnce(String, String, i64, i64, i64) -> Diagnostic,
    ) -> bool {
        let mut owner: HashMap<i64, i64> = HashMap::new();
        for i in 0..width.max(0) {
            for off in fix_outer(ixfn, i).all_offsets() {
                self.stats.cells_checked += 1;
                match owner.insert(off, i) {
                    Some(prev) if prev != i => {
                        let d = overlap(self.stm_name(), format!("{ixfn:?}"), off, prev, i);
                        self.diag(d);
                        return false;
                    }
                    _ => {}
                }
            }
        }
        true
    }

    /// Dynamic race detector for one map statement: no two iterations may
    /// write one cell. No-op outside checked mode.
    fn race_check(&mut self, block: usize, ixfn: &ConcreteIxFn, width: i64) {
        if !self.checked() || ixfn.rank() == 0 {
            return;
        }
        self.rows_disjoint(ixfn, width, |stm, ixfn, offset, iter_a, iter_b| {
            Diagnostic::MapRace {
                stm,
                block,
                offset,
                iter_a,
                iter_b,
                ixfn,
            }
        });
    }

    /// Checked mode's pre-dispatch re-proof for a `par_safety`-approved
    /// map. Returns `true` when the symbolic verdict holds (the map may
    /// run parallel under the sanitizer); an overlap reports
    /// [`Diagnostic::ParOverlap`] and the caller runs the map serially.
    fn par_precheck(&mut self, block: usize, ixfn: &ConcreteIxFn, width: i64) -> bool {
        // A rank-0 result cannot be split into per-iteration rows; fall
        // back to serial without claiming a verification.
        let proven = ixfn.rank() > 0
            && self.rows_disjoint(ixfn, width, |stm, ixfn, offset, iter_a, iter_b| {
                Diagnostic::ParOverlap {
                    stm,
                    block,
                    offset,
                    iter_a,
                    iter_b,
                    ixfn,
                }
            });
        self.stats.par_checks_verified += proven as u64;
        proven
    }

    /// A gather/scatter lane whose runtime index lies outside `[0,
    /// extent)`: checked mode records the finding and the caller skips
    /// the lane; the unchecked evaluators abort.
    fn oob_lane(&mut self, what: &str, lane: i64, index: i64, extent: i64) -> Result<(), String> {
        if !self.checked() {
            return Err(format!(
                "{what} index {index} out of bounds for {extent} elements (lane {lane})"
            ));
        }
        let d = Diagnostic::IndexOutOfBounds {
            stm: self.stm_name(),
            lane,
            index,
            extent,
        };
        self.diag(d);
        Ok(())
    }

    /// The array a slot holds. (Handing out a copy of the handle shares
    /// its index function; nothing is deep-copied.)
    fn array(&self, slot: Slot) -> &ArrayRef {
        self.arrays[slot as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("slot %{slot} holds no array"))
    }

    fn bind(&mut self, slot: Slot, a: ArrayRef) {
        self.arrays[slot as usize] = Some(a);
    }

    /// An array operand about to be read in full.
    fn operand(&mut self, slot: Slot) -> ArrayRef {
        let a = self.array(slot).clone();
        self.check_read(a.block, &a.ixfn);
        a
    }

    /// Views of a map's input arrays, each about to be read in full.
    fn input_views(&mut self, slots: &[Slot]) -> Vec<View> {
        slots
            .iter()
            .map(|s| {
                let a = self.operand(*s);
                self.view(&a)
            })
            .collect()
    }

    /// Bind `slot` to a fresh array the executing statement just wrote in
    /// full.
    fn bind_written(&mut self, slot: Slot, a: ArrayRef) {
        self.mark_write(a.block, &a.ixfn);
        self.bind(slot, a);
    }

    /// One accounted copy: time it, count it, and shadow-mark the
    /// destination footprint (a view of `block`) as written.
    fn copy_into(&mut self, block: usize, dst: &ViewMut, src: &View) {
        let t = Instant::now();
        self.stats.bytes_copied += copy_view(dst, src);
        self.stats.copy_time += t.elapsed();
        self.stats.num_copies += 1;
        self.mark_write(block, dst.ixfn());
    }

    /// Account a copy of `a` the optimizer elided.
    fn count_elided(&mut self, a: &ArrayRef) {
        self.stats.bytes_elided += a.ixfn.num_elems() as u64 * a.elem.size_bytes() as u64;
        self.stats.num_elided += 1;
    }

    /// Execute a (linear, jump-threaded) instruction stream.
    fn exec_stream(&mut self, s: &Stream) -> Result<(), String> {
        // Blame is the sanitizer's: provenance of shadow marks, the
        // statement a diagnostic names.
        let blame = self.checked();
        let mut pc = 0usize;
        while pc < s.instrs.len() {
            if blame {
                if let Some(v) = s.blame[pc] {
                    self.cur_stm = Some(v);
                }
            }
            match &s.instrs[pc] {
                Instr::Jump { target } => {
                    pc = *target;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } => {
                    if !truth(self.eval(cond)?)? {
                        pc = *target;
                        continue;
                    }
                }
                Instr::JumpIfGe { a, b, target, .. } => {
                    let [i, n] = [*a, *b].map(|s| self.regs[s as usize].as_i64());
                    if i >= n || i == 0 && self.typed_loop(&s.instrs[pc..*target], n)? {
                        pc = *target;
                        continue;
                    }
                    self.stats.loop_iters_stepped += (self.mode == Mode::Memory) as u64;
                }
                // What a lambda body is made of stays in this loop.
                Instr::Scalar { dst, elem, exp } => {
                    let v = self.eval(exp)?;
                    self.regs[*dst as usize] = coerce(v, *elem)?;
                }
                i => self.exec_instr(i)?,
            }
            pc += 1;
        }
        Ok(())
    }

    #[inline(never)]
    fn exec_instr(&mut self, instr: &Instr) -> Result<(), String> {
        match instr {
            Instr::Alloc { dst, elem, size } => {
                let n = size.eval(&self.regs).map_err(|e| e.of("alloc size"))?;
                let block = self.store.try_alloc(*elem, n.max(0) as usize)?;
                self.regs[*dst as usize] = Value::mem(self.store.handle(block));
            }
            Instr::Iota { dest } => {
                let dst = self.fresh_dest(dest)?;
                let view = self.view_mut(&dst);
                let n = view.num_elems();
                for i in 0..n {
                    view.set(i, Value::i64(i));
                }
                self.bind_written(dest.slot, dst);
            }
            Instr::Scratch { dest } => {
                let dst = self.fresh_dest(dest)?;
                self.bind(dest.slot, dst);
            }
            Instr::Replicate { dest, value } => {
                let v = self.eval(value)?;
                let dst = self.fresh_dest(dest)?;
                self.view_mut(&dst).fill(v);
                self.bind_written(dest.slot, dst);
            }
            Instr::Copy { dest, src } => {
                let src_a = self.operand(*src);
                let dst = self.fresh_dest(dest)?;
                let (sv, dv) = (self.view(&src_a), self.view_mut(&dst));
                self.copy_into(dst.block, &dv, &sv);
                self.bind(dest.slot, dst);
            }
            Instr::Concat { dest, args } => {
                let dst = self.fresh_dest(dest)?;
                let dv = self.view_mut(&dst);
                let mut row = 0i64;
                for arg in args {
                    // Every argument is read (an elided one was constructed
                    // directly in the destination — its cells must already
                    // be written there).
                    let src_a = self.operand(arg.src);
                    let rows = src_a.ixfn.shape()[0];
                    if arg.elided && self.mem_like() {
                        self.count_elided(&src_a);
                    } else {
                        let sv = self.view(&src_a);
                        // Destination sub-view: rows [row, row+rows).
                        self.copy_into(dst.block, &slice_rows(&dv, row, rows), &sv);
                    }
                    row += rows;
                }
                self.bind(dest.slot, dst);
            }
            Instr::Transform { dest, src, tr } => {
                let src_a = self.array(*src);
                let (block, elem) = (src_a.block, src_a.elem);
                let tr = eval_all(&self.regs, |f| tr.map(f)).map_err(|e| e.of("transform"))?;
                let ixfn = src_a
                    .ixfn
                    .transform(&tr)
                    .ok_or("unsupported concrete transform")?;
                let result = if self.mode == Mode::Pure {
                    // Materialize the transformed view into a fresh array.
                    let dst = self.fresh_dest(dest)?;
                    let sv = View::new(self.store.raw(block), ixfn);
                    let dv = self.view_mut(&dst);
                    copy_view(&dv, &sv);
                    dst
                } else {
                    ArrayRef::new(block, elem, ixfn)
                };
                self.bind(dest.slot, result);
            }
            Instr::Gather { dest, src, idx } => {
                // Only the lanes' cells of the source are read (and
                // checked, lane by lane); the index array is read in full.
                let src_a = self.array(*src).clone();
                let idx_a = self.operand(*idx);
                if idx_a.elem != ElemType::I64 {
                    return Err("gather index array must be i64".into());
                }
                let dst = self.fresh_dest(dest)?;
                self.index_lanes(false, &idx_a, &dst, &src_a)?;
                self.bind_written(dest.slot, dst);
            }
            Instr::MapKernel(mk) => self.map_kernel(mk)?,
            Instr::MapLambda(ml) => self.map_lambda(ml)?,
            Instr::Update(u) => self.update(u)?,
            Instr::Release { slot, site } => {
                // Return blocks that just saw their last use to the free
                // list. The shadow layer records the release site: a later
                // read of the block names the statement whose plan entry
                // freed it. A handle whose block has since been revived
                // for another owner releases nothing.
                if let Some(handle) = self.regs[*slot as usize].as_handle() {
                    self.store.release_handle(handle, *site);
                }
            }
            Instr::ReleaseCarried {
                incoming,
                outgoing,
                guards,
                site,
            } => {
                // Release a loop's dead carried ping-pong block to the
                // free list, where the next iteration's `alloc` finds it.
                // Guarded concretely: when the body yielded the incoming
                // block itself (or it backs another carried slot), it is
                // still live and stays put.
                let handle = self.regs[*incoming as usize]
                    .as_handle()
                    .ok_or("release-carried on a non-mem slot")?;
                let outgoing_id = self.regs[*outgoing as usize]
                    .as_mem()
                    .ok_or("release-carried outgoing is not a mem slot")?;
                let aliased = handle.0 == outgoing_id
                    || guards
                        .iter()
                        .any(|g| self.regs[*g as usize].as_mem() == Some(handle.0));
                if !aliased && self.store.release_handle(handle, *site) {
                    self.stats.carried_releases += 1;
                }
            }
            Instr::CopySlots { pairs } => {
                // Two-phase: loop merge parameters may permute, so all
                // sources are read before any destination is written. A
                // slot is scalar- or array-typed for good, and an array
                // slot that already names its source's array — a loop
                // carrying one array round and round — is left alone.
                for &(src, dst) in pairs {
                    self.moved.push(self.regs[src as usize]);
                    match &self.arrays[src as usize] {
                        Some(a) if !names(&self.arrays[dst as usize], a) => {
                            self.moved_arrays.push((dst, a.clone()))
                        }
                        _ => {}
                    }
                }
                for (&(_, dst), v) in pairs.iter().zip(self.moved.drain(..)) {
                    self.regs[dst as usize] = v;
                }
                for (dst, a) in self.moved_arrays.drain(..) {
                    self.arrays[dst as usize] = Some(a);
                }
            }
            Instr::VerifyChecks { checks } => {
                if self.checked() {
                    self.verify_checks(checks);
                }
            }
            Instr::Scalar { .. }
            | Instr::Jump { .. }
            | Instr::JumpIfFalse { .. }
            | Instr::JumpIfGe { .. } => {
                unreachable!("scalars and jumps are handled by exec_stream")
            }
        }
        Ok(())
    }

    /// A map over a native kernel, scheduled by the `par_safety` verdict.
    fn map_kernel(&mut self, mk: &MapKernelInstr) -> Result<(), String> {
        let width = mk.width.eval(&self.regs).map_err(|e| e.of("map width"))?;
        let dst = self.fresh_dest(&mk.dest)?;
        let kernel = match mk.kernel {
            Some(k) => self.kernels.by_index(k).clone(),
            None => return Err(format!("unregistered kernel {}", mk.kernel_name)),
        };
        let inputs = self.input_views(&mk.inputs);
        let argv: Vec<Value> = mk
            .args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<_, _>>()?;
        let row_shape_c = eval_shape(&mk.row_shape, &self.regs).map_err(|e| e.of("row shape"))?;
        let row_elems = elem_count(&row_shape_c)? as i64;
        let scalar_rows = row_shape_c.is_empty();
        let par_proven = mk.par == ParLevel::Safe;
        // Checked mode re-proves a `Safe` verdict concretely before
        // dispatching: enumerate every iteration's write footprint and confirm
        // no cell is written twice. A failed re-proof reports
        // [`Diagnostic::ParOverlap`] and the map falls back to serial
        // execution.
        let precheck_ran = par_proven && self.checked();
        let prechecked = precheck_ran && self.par_precheck(dst.block, &dst.ixfn, width);
        // Pure mode writes rows directly (fresh dense memory never aliases
        // inputs); Memory mode honours the pass's verdicts: `Safe` writes
        // result memory directly, `Serial` means direct writes with *unproven*
        // disjointness.
        let direct = scalar_rows || mk.in_place || self.mode == Mode::Pure || par_proven;
        let out_view = self.view_mut(&dst);
        // Private per-worker row buffers for the non-in-place case: the
        // mapnest's implicit result copy (§V-A(e)). The copy-out targets a
        // worker-private row, so buffered maps parallelize freely; `Serial`
        // maps never dispatch in parallel.
        let workers = match self.mode {
            Mode::Pure => self.threads,
            Mode::Memory if mk.par == ParLevel::Serial => 1,
            Mode::Memory => self.threads,
            // Under the sanitizer, only maps the pre-dispatch re-proof cleared
            // may run parallel.
            Mode::Checked => {
                if prechecked {
                    self.threads
                } else {
                    1
                }
            }
        };
        let temp_block = if direct {
            None
        } else {
            let rows = elem_count(&[row_elems, workers as i64])?;
            Some(self.store.try_alloc(mk.elem, rows)?)
        };
        let temp_raw = temp_block.map(|b| self.store.raw(b));
        let t0 = Instant::now();
        let info = parallel_for_worker(workers, width, |i, w| {
            let row = out_view.row(i);
            if direct {
                let ctx = KernelCtx {
                    i,
                    inputs: &inputs,
                    args: &argv,
                    out: row,
                };
                kernel(&ctx);
            } else {
                // Build the private row, then copy it out.
                let mut priv_lmad = ConcreteLmad::row_major(&row_shape_c);
                priv_lmad.offset = w as i64 * row_elems;
                let priv_row = ViewMut::new(temp_raw.unwrap(), ConcreteIxFn::from_lmad(priv_lmad));
                let ctx = KernelCtx {
                    i,
                    inputs: &inputs,
                    args: &argv,
                    out: priv_row.clone(),
                };
                kernel(&ctx);
                copy_view(&row, &priv_row.as_view());
            }
        });
        self.stats.kernel_time += t0.elapsed();
        self.stats.kernel_launches += width.max(0) as u64;
        self.stats.pool_dispatches += info.dispatched as u64;
        if info.dispatched {
            self.stats.par_chunks += info.chunks;
            self.stats.par_chunks_stolen += info.chunks_stolen;
            self.stats.par_workers_engaged += info.workers_engaged as u64;
            self.stats.par_workers_offered += info.workers_offered as u64;
            if par_proven && direct && self.mem_like() {
                self.stats.maps_parallel_in_place += 1;
            }
        }
        // The private-row scratch dies with the dispatch; recycle it so the
        // next non-in-place map pays no fresh alloc.
        if let Some(b) = temp_block {
            self.store.release(b);
        }
        let bytes = (width * row_elems).max(0) as u64 * mk.elem.size_bytes() as u64;
        if !direct {
            self.stats.bytes_copied += bytes;
            self.stats.num_copies += width.max(0) as u64;
        } else if mk.in_place && self.mem_like() && !scalar_rows {
            self.stats.bytes_elided += bytes;
            self.stats.num_elided += width.max(0) as u64;
        }
        // Dynamic race detector: no two iterations of the map may write one
        // cell. The kernel writes each row through the result's index function
        // with the outer dim fixed, so enumerating those footprints covers its
        // stores. For `par_safety`-approved maps the pre-dispatch re-proof
        // already enumerated exactly these footprints (and reported any
        // overlap as `ParOverlap`), so skip the post-hoc pass.
        if !precheck_ran {
            self.race_check(dst.block, &dst.ixfn, width);
        }
        self.bind_written(mk.dest.slot, dst);
        Ok(())
    }

    /// A lambda map over rank-1 inputs. `Pure`, the oracle, evaluates the
    /// body once per element; `Memory` and `Checked` run the same code in
    /// strips wherever that is the same thing, and count the elements for
    /// which it is not.
    fn map_lambda(&mut self, ml: &MapLambdaInstr) -> Result<(), String> {
        let width = ml.width.eval(&self.regs).map_err(|e| e.of("map width"))?;
        let dsts: Vec<ArrayRef> = ml
            .dests
            .iter()
            .map(|d| self.fresh_dest(d))
            .collect::<Result<_, _>>()?;
        let in_views = self.input_views(&ml.inputs);
        // The width is the program's, the inputs are the request's.
        if let Some(short) = in_views.iter().find(|v| v.num_elems() < width) {
            let n = short.num_elems();
            return Err(format!(
                "map of width {width} over an input of {n} elements"
            ));
        }
        let out_views: Vec<ViewMut> = dsts.iter().map(|a| self.view_mut(a)).collect();
        let n = width.max(0) as usize;
        let t0 = Instant::now();
        if self.mem_like() && self.resolve_strips(ml, &dsts, &in_views, &out_views, n) {
            for lo in (0..n).step_by(STRIP) {
                let len = STRIP.min(n - lo);
                if !self.strips.run(&in_views, &out_views, lo, len) {
                    // Some lane has no value and nothing of the strip is
                    // stored: the evaluator says which element's.
                    self.stats.lambda_elems_elementwise += len as u64;
                    self.lambda_elems(ml, &in_views, &out_views, lo..lo + len)?;
                }
            }
        } else {
            if self.mem_like() {
                self.stats.lambda_elems_elementwise += n as u64;
            }
            self.lambda_elems(ml, &in_views, &out_views, 0..n)?;
        }
        self.stats.kernel_time += t0.elapsed();
        self.stats.kernel_launches += n as u64;
        // The body's instructions moved `cur_stm`; provenance of the map's
        // results is the map statement itself.
        self.cur_stm = ml.stm_var;
        for (d, dst) in ml.dests.iter().zip(dsts) {
            self.race_check(dst.block, &dst.ixfn, width);
            self.bind_written(d.slot, dst);
        }
        Ok(())
    }

    /// Can this execution of `ml` run in strips? Its body is eligible, every
    /// operand has a type right now, and no result lands in a block an
    /// operand is read from but that operand itself, element `i` on element
    /// `i` (then read into scratch); other sharing runs element by element.
    fn resolve_strips(
        &mut self,
        ml: &MapLambdaInstr,
        dsts: &[ArrayRef],
        in_views: &[View],
        out_views: &[ViewMut],
        width: usize,
    ) -> bool {
        let shares = |d: &ArrayRef, a: &ArrayRef| d.block == a.block;
        let same = |d: &ArrayRef, a: &ArrayRef| d.elem == a.elem && d.ixfn == a.ixfn;
        let arrays = &self.arrays;
        let input = |k: usize| arrays[ml.inputs[k] as usize].as_ref().expect("an array");
        let apart = dsts.iter().enumerate().all(|(i, d)| {
            (0..in_views.len()).all(|k| !shares(d, input(k)) || same(d, input(k)))
                && dsts[..i].iter().all(|e| !shares(d, e))
        });
        let borrow = |k: usize| !dsts.iter().any(|d| shares(d, input(k)));
        let m = &mut (&self.regs[..], &mut [][..], &mut *self.store);
        let mut typed = |s: &mut Strips| s.resolve(ml, m, in_views, borrow, out_views, width);
        ml.strip.is_ok() && apart && typed(&mut self.strips).is_some()
    }

    /// The body once per element of `elems`. Parameter slots are
    /// overwritten per element; body-local slots are re-executed before
    /// any use, so the register file needs no per-element reset. The views
    /// classified their access when they were made: an element costs its
    /// offset, a load or store, and the body.
    fn lambda_elems(
        &mut self,
        ml: &MapLambdaInstr,
        in_views: &[View],
        out_views: &[ViewMut],
        elems: std::ops::Range<usize>,
    ) -> Result<(), String> {
        for i in elems.start as i64..elems.end as i64 {
            for (p, view) in ml.params.iter().zip(in_views) {
                self.regs[*p as usize] = view.get(i);
            }
            self.exec_stream(&ml.body)?;
            for (r, out) in ml.results.iter().zip(out_views) {
                out.set(i, self.regs[*r as usize]);
            }
        }
        Ok(())
    }

    fn update(&mut self, u: &UpdateInstr) -> Result<(), String> {
        // The destination array: in `Pure` mode a fresh copy of `dst` (true
        // value semantics), otherwise `dst` itself under its new name.
        let slot = u.dest.slot;
        if self.mode == Mode::Pure {
            let dst_a = self.array(u.dst).clone();
            let fresh = self.fresh_dest(&u.dest)?;
            let (sv, dv) = (self.view(&dst_a), self.view_mut(&fresh));
            copy_view(&dv, &sv);
            self.bind(slot, fresh);
        } else if !names(&self.arrays[slot as usize], self.array(u.dst)) {
            let dst_a = self.array(u.dst).clone();
            self.bind(slot, dst_a);
        }
        match (&u.slice, &u.src) {
            // One word, addressed through the index function: no slice, no
            // view. The coordinates, evaluated first, wait in `at` while
            // the source is evaluated — it may index an array itself.
            (LSlice::Point(at), LUpdateSrc::Scalar(se)) => {
                self.eval_point(at)?;
                let v = self.eval(se)?;
                let a = self.array(slot);
                check_point(a, &self.at)?;
                let (block, off) = (a.block, a.ixfn.index(&self.at));
                self.store.raw(block).set(off, v);
                self.mark_cell(block, off);
            }
            // Runtime-indexed write: element `k` of the source lands at flat
            // position `idx[k]` of the destination. Lanes run in ascending
            // order serially, so duplicate indices are legal and the last
            // write wins — the schedule `par_safety` pinned with
            // `ParReject::RuntimeIndexedWrite`.
            (LSlice::Scatter(idx), LUpdateSrc::Array(s)) => {
                let (idx_a, src_a) = (self.operand(*idx), self.operand(*s));
                if idx_a.elem != ElemType::I64 {
                    return Err("scatter index array must be i64".into());
                }
                let result = self.array(slot).clone();
                self.index_lanes(true, &idx_a, &result, &src_a)?;
            }
            (LSlice::Scatter(_), LUpdateSrc::Scalar(_)) => {
                return Err("scatter requires an array source".into());
            }
            _ => {
                let result = self.array(slot).clone();
                self.update_slice(u, &result)?;
            }
        }
        Ok(())
    }

    /// Cross-check lowered short-circuit footprints with the current
    /// block's symbols in scope: evaluate the recorded symbolic footprints
    /// and prove each (write, later-use) pair disjoint by enumeration. The
    /// instruction sits at the end of the defining block, so circuits
    /// inside loop bodies are re-verified per iteration against that
    /// iteration's concrete offsets. Checked mode only.
    fn verify_checks(&mut self, checks: &[crate::plan::LoweredCheck]) {
        for c in checks {
            let [writes, uses] = [&c.writes, &c.uses].map(|ls| {
                ls.iter()
                    .filter_map(|l| l.map(|p| p.eval(&self.regs).ok()))
                    .collect::<Vec<ConcreteLmad>>()
            });
            // Verified: every footprint evaluated, every pair disjoint. An
            // unevaluated footprint or a pair too large to enumerate skips.
            let mut skipped = writes.len() < c.writes.len() || uses.len() < c.uses.len();
            let mut verified = !skipped;
            for (w, u) in writes.iter().flat_map(|w| uses.iter().map(move |u| (w, u))) {
                match footprint_check(w, u, FOOTPRINT_CAP) {
                    FootprintCheck::Disjoint => {}
                    FootprintCheck::TooLarge => (skipped, verified) = (true, false),
                    FootprintCheck::Overlap(offset) => {
                        verified = false;
                        self.diag(Diagnostic::CircuitOverlap {
                            root: c.root.clone(),
                            stm: c.stm.clone(),
                            offset,
                            write_ixfn: format!("{w:?}"),
                            use_ixfn: format!("{u:?}"),
                        });
                    }
                }
            }
            self.stats.circuits_verified += verified as u64;
            self.stats.circuits_skipped += skipped as u64;
        }
    }

    /// A view of an array, for an instruction about to go over all of it.
    /// Views own their index function (kernels build and drop row views
    /// of their own), so this is the one place an array's is copied —
    /// once per instruction, never per element.
    fn view(&mut self, a: &ArrayRef) -> View {
        View::with_class(self.store.raw(a.block), (*a.ixfn).clone(), a.class)
    }

    fn view_mut(&mut self, a: &ArrayRef) -> ViewMut {
        ViewMut::with_class(self.store.raw(a.block), (*a.ixfn).clone(), a.class)
    }

    /// Resolve the destination array for a fresh creation: in `Memory`
    /// mode this honours the lowered binding (block slot + index function,
    /// with the access class precomputed when static); in `Pure` mode a
    /// fresh dense block is allocated.
    fn fresh_dest(&mut self, d: &Dest) -> Result<ArrayRef, String> {
        if self.mem_like() {
            let md = d
                .mem
                .as_ref()
                .ok_or_else(|| format!("{} has no memory binding (run the pipeline)", d.var))?;
            let block_slot = md
                .block
                .ok_or_else(|| format!("memory block {} unbound", md.block_var))?;
            let block = self.regs[block_slot as usize]
                .as_mem()
                .ok_or_else(|| format!("memory block {} unbound", md.block_var))?;
            let access = md.ixfn.eval_access(&self.regs);
            let (ixfn, class) =
                access.map_err(|e| e.of(&format!("index function of {}", d.var)))?;
            Ok(ArrayRef::with_class(block, d.elem, ixfn, class))
        } else {
            let shape = eval_shape(&d.shape, &self.regs).map_err(|e| e.of("shape"))?;
            let block = self.store.try_alloc(d.elem, elem_count(&shape)?)?;
            Ok(ArrayRef::new(
                block,
                d.elem,
                ConcreteIxFn::row_major(&shape),
            ))
        }
    }

    /// An update through a triplet or LMAD slice, or of a point by an
    /// array: the destination slice becomes a view and is filled or
    /// copied into.
    fn update_slice(&mut self, u: &UpdateInstr, result: &ArrayRef) -> Result<(), String> {
        let slice = match &u.slice {
            LSlice::Tr(tr) => eval_all(&self.regs, |f| tr.map(f)).map_err(|e| e.of("slice"))?,
            LSlice::Point(at) => {
                self.eval_point(at)?;
                check_point(result, &self.at)?;
                let fixed = self.at.iter().map(|&i| TripletSlice::Fix(i));
                Transform::Slice(fixed.collect())
            }
            LSlice::Scatter(_) => unreachable!("scatter is not a slice"),
        };
        let slice_ixfn = result.ixfn.transform(&slice).ok_or("bad slice")?;
        // The language's dynamic legality check for LMAD-slice updates
        // (§III-B): the written positions must not self-overlap.
        if u.lmad_slice {
            if let Some(l) = slice_ixfn.as_single() {
                if !lmad_slice_is_injective(l) {
                    return Err("LMAD-slice update writes overlapping positions".into());
                }
            }
        }
        match &u.src {
            LUpdateSrc::Scalar(se) => {
                let v = self.eval(se)?;
                let dview = ViewMut::new(self.store.raw(result.block), slice_ixfn);
                dview.fill(v);
                self.mark_write(result.block, dview.ixfn());
            }
            LUpdateSrc::Array(s) => {
                // Read check either way: an elided update's source was
                // constructed directly in the destination slice, so its
                // cells must already be written there.
                let src_a = self.operand(*s);
                if u.elided && self.mem_like() {
                    self.count_elided(&src_a);
                } else {
                    let sv = self.view(&src_a);
                    let dview = ViewMut::new(self.store.raw(result.block), slice_ixfn);
                    self.copy_into(result.block, &dview, &sv);
                }
            }
        }
        Ok(())
    }

    /// Gather (`dst[k] = src[idx[k]]`) or scatter (`dst[idx[k]] =
    /// src[k]`) over the lanes of the index array, accounted as one copy
    /// of the lanes written. How the lanes run — sanitizer on or off,
    /// index array as a plain slice or through its view — is decided here,
    /// once per instruction.
    fn index_lanes(
        &mut self,
        scatter: bool,
        idx_a: &ArrayRef,
        dst: &ArrayRef,
        src: &ArrayRef,
    ) -> Result<(), String> {
        let (iv, sv, dv) = (self.view(idx_a), self.view(src), self.view_mut(dst));
        let n = iv.num_elems();
        if scatter && sv.num_elems() != n {
            return Err(format!(
                "scatter source holds {} elements for {} indices",
                sv.num_elems(),
                n
            ));
        }
        let indexed = if scatter { dst } else { src };
        let lanes = Lanes {
            scatter,
            n,
            dst: &dv,
            src: &sv,
            block: indexed.block,
            ixfn: &indexed.ixfn,
        };
        let t = Instant::now();
        // A slice of the index array must not watch its own block change
        // under the lanes' writes.
        let idx = iv.as_slice::<i64>().filter(|_| idx_a.block != dst.block);
        let written = match (self.checked(), idx) {
            (false, Some(idx)) => self.lane_strips(&lanes, idx, src.block != dst.block),
            (false, None) => self.lanes::<false>(&lanes, |k| iv.get(k).as_i64()),
            (true, _) => self.lanes::<true>(&lanes, |k| iv.get(k).as_i64()),
        }?;
        self.stats.copy_time += t.elapsed();
        self.stats.bytes_copied += written * dst.elem.size_bytes() as u64;
        self.stats.num_copies += 1;
        Ok(())
    }

    /// The lanes of an index slice outside the sanitizer, in strips: one
    /// pass proves every index of the strip inside the indexed array, then
    /// [`move_lanes`] only moves. A strip with a stray index goes to the
    /// lane loop, which words the error for the first one.
    fn lane_strips(&mut self, l: &Lanes, idx: &[i64], apart: bool) -> Result<u64, String> {
        let extent = l.ixfn.num_elems();
        for (s, strip) in idx.chunks(STRIP).enumerate() {
            // `&`, not `&&`: the pass has no branch to mispredict.
            if !strip
                .iter()
                .fold(true, |ok, &j| ok & (0 <= j) & (j < extent))
            {
                return self.lanes::<false>(l, |k| idx[k as usize]);
            }
            move_lanes(l.dst, l.src, strip, s * STRIP, l.scatter, apart);
        }
        Ok(idx.len() as u64)
    }

    /// The one lane loop. Every lane's index is checked against the
    /// indexed array's element count; under the sanitizer (`CHECKED`) a
    /// gathered cell is checked before it is read and a scattered cell
    /// marked once written. Returns the lanes written.
    fn lanes<const CHECKED: bool>(
        &mut self,
        l: &Lanes,
        idx_at: impl Fn(i64) -> i64,
    ) -> Result<u64, String> {
        let what = if l.scatter { "scatter" } else { "gather" };
        let extent = l.ixfn.num_elems();
        let mut written = 0u64;
        for k in 0..l.n.max(0) {
            let j = idx_at(k);
            if j < 0 || j >= extent {
                self.oob_lane(what, k, j, extent)?;
                continue;
            }
            if l.scatter {
                l.dst.copy_elem(j, l.src, k);
                if CHECKED {
                    self.mark_cell(l.block, l.ixfn.index_flat(j));
                }
            } else {
                if CHECKED {
                    self.check_cell(l.block, l.ixfn.index_flat(j), l.ixfn);
                }
                l.dst.copy_elem(k, l.src, j);
            }
            written += 1;
        }
        Ok(written)
    }

    /// Run a loop at its first iteration — `code`, its guard to its jump
    /// back — as one superinstruction of its `n` iterations, if `Memory`
    /// may and its code types: `Ok(false)`, nothing run, if not.
    fn typed_loop(&mut self, code: &[Instr], n: i64) -> Result<bool, String> {
        let [Instr::JumpIfGe { a, typed, .. }, code @ .., _, _] = code else {
            unreachable!("a loop is its guard, body, back edge, counter and jump")
        };
        let typed = typed.is_ok() && self.mode == Mode::Memory;
        let m = &mut (&self.regs[..], &mut self.arrays[..], &mut *self.store);
        if !(typed && self.strips.resolve_loop(code, *a, m).is_some()) {
            return Ok(false);
        }
        self.strips.run_loop(n, &mut self.regs).map(|()| true)
    }

    /// The element of the array in slot `arr` at `self.point`.
    fn load_point(&mut self, arr: Slot) -> Result<Value, String> {
        let a = self.array(arr);
        check_point(a, &self.point)?;
        let (block, off) = (a.block, a.ixfn.index(&self.point));
        if self.checked() {
            let ixfn = Arc::clone(&a.ixfn);
            self.check_cell(block, off, &ixfn);
        }
        Ok(self.store.raw(block).get(off))
    }

    /// An operand of a step of scalar code.
    #[inline(always)]
    fn arg(&self, e: &LExp, a: Arg) -> Value {
        match a {
            Arg::Slot(s) => self.regs[s as usize],
            Arg::Const(k) => e.consts[k as usize],
            Arg::Val(k) => self.vals[k as usize],
        }
    }

    /// Point code's coordinates, into `self.at`.
    fn eval_point(&mut self, at: &LExp) -> Result<(), String> {
        if !at.ops.is_empty() {
            self.eval(at)?;
        }
        self.at.clear();
        for r in &at.results {
            let i = self.arg(at, *r).as_i64();
            self.at.push(i);
        }
        Ok(())
    }

    /// Evaluate scalar code at width 1, one loop over its steps: step `k`
    /// leaves its value in `self.vals[k]`, and the first step that fails
    /// raises. An expression's value is its last step's, or its leaf when
    /// it has no code. The arithmetic, its tags and promotions are
    /// [`eval_bin`], [`eval_un`] and [`coerce`], whatever the mode.
    fn eval(&mut self, e: &LExp) -> Result<Value, String> {
        if e.ops.is_empty() {
            return Ok(self.arg(e, e.results[0]));
        }
        if self.vals.len() < e.ops.len() {
            self.vals.resize(e.ops.len(), Value::i64(0));
        }
        let (mut pc, mut last) = (0usize, Value::i64(0));
        while let Some(op) = e.ops.get(pc) {
            last = match *op {
                Op::Size(k) => {
                    let n = e.sizes[k as usize].eval(&self.regs);
                    Value::i64(n.map_err(|e| e.of("size expression"))?)
                }
                Op::Bin(op, a, b) => eval_bin(op, self.arg(e, a), self.arg(e, b))?,
                Op::Un(op, a) => eval_un(op, self.arg(e, a))?,
                Op::Index { arr, at, rank } => {
                    self.point.clear();
                    for c in &e.coords[at as usize..][..rank as usize] {
                        let i = self.arg(e, *c).as_i64();
                        self.point.push(i);
                    }
                    self.load_point(arr)?
                }
                Op::JumpIfFalse(cond, target) => {
                    pc = match truth(self.arg(e, cond))? {
                        true => pc + 1,
                        false => target as usize,
                    };
                    continue;
                }
                Op::Jump(a, join) => {
                    last = self.arg(e, a);
                    self.vals[join as usize] = last;
                    pc = join as usize + 1;
                    continue;
                }
                Op::Move(a) => self.arg(e, a),
            };
            self.vals[pc] = last;
            pc += 1;
        }
        Ok(last)
    }
}

/// What a gather/scatter lane loop works on, resolved once per
/// instruction.
struct Lanes<'a> {
    scatter: bool,
    n: i64,
    dst: &'a ViewMut,
    src: &'a View,
    /// The array the runtime indices address — a gather's source, a
    /// scatter's destination.
    block: usize,
    ixfn: &'a ConcreteIxFn,
}

/// Does a slot holding `held` already name the array `a` — the same index
/// function over the same block? Re-binding it would only move reference
/// counts.
pub(crate) fn names(held: &Option<ArrayRef>, a: &ArrayRef) -> bool {
    matches!(held, Some(b)
        if b.block == a.block && b.elem == a.elem && Arc::ptr_eq(&b.ixfn, &a.ixfn))
}

/// Is `point` a logical index of `a`: one coordinate per dimension, each
/// inside its extent?
pub(crate) fn check_point(a: &ArrayRef, point: &[i64]) -> Result<(), String> {
    let dims = &a.ixfn.logical().dims;
    let inside =
        point.len() == dims.len() && point.iter().zip(dims).all(|(&i, d)| 0 <= i && i < d.card);
    if inside {
        Ok(())
    } else {
        Err(format!(
            "index {point:?} out of bounds for shape {:?}",
            a.ixfn.shape()
        ))
    }
}

/// The number of elements of a shape: the checked product of its extents
/// (a negative product counts as empty). Extents are program inputs, so
/// an overflow is the request's error.
fn elem_count(shape: &[i64]) -> Result<usize, String> {
    let product = shape.iter().try_fold(1i64, |n, &d| n.checked_mul(d));
    product
        .map(|n| n.max(0) as usize)
        .ok_or_else(|| format!("shape {shape:?} has more elements than the address space"))
}

/// Sub-view of rows `[row, row+rows)` along the outer dimension.
fn slice_rows(v: &ViewMut, row: i64, rows: i64) -> ViewMut {
    let mut ixfn = v.ixfn().clone();
    let logical = ixfn.lmads.last_mut().unwrap();
    let outer = &mut logical.dims[0];
    debug_assert!(row + rows <= outer.card);
    outer.card = rows;
    logical.offset += row * outer.stride;
    ViewMut::new(v.raw(), ixfn)
}
