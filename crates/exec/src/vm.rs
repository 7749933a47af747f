//! The plan executor.
//!
//! Programs are not interpreted from the IR tree: [`Session::prepare_full`]
//! lowers a compiled program once into a flat [`ExecPlan`] (see
//! [`crate::plan`]) and caches it by a structural fingerprint;
//! [`Session::run_plan`] then replays the instruction stream against a
//! dense `Vec<Value>` register file. The hot loop performs **no** hash
//! map lookups — operands are pre-resolved slots — and no per-run
//! release-plan analysis: release sites are instructions in the stream.
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
//!   pair a short-circuit's symbolic non-overlap test approved.
//!   Mapnests the `par_safety` stage proved safe are **not** serialized:
//!   their chunk disjointness is re-proved concretely by enumeration
//!   before each dispatch, and only a failed re-proof (reported as
//!   [`Diagnostic::ParOverlap`]) falls back to serial execution; maps
//!   without a proof run serially for deterministic diagnostics.
//!   Findings land in [`Stats::diagnostics`] rather than aborting, so one
//!   run reports all. Diagnostics name source statements via the plan's
//!   blame side table.

use crate::cache::PlanCache;
use crate::kernel::{KernelCtx, KernelRegistry};
use crate::plan::{
    eval_shape, Dest, ExecPlan, Instr, LExp, LSlice, LUpdateSrc, ParamSpec, Slot, Stream,
};
use crate::pool::parallel_for_worker;
use crate::stats::{Diagnostic, Stats};
use crate::store::{CellState, MemStore, RawBuf};
use crate::value::{ArrayRef, InputValue, OutputValue, Value};
use crate::view::{copy_view, fix_outer, View, ViewMut};
use arraymem_core::{CircuitCheck, MergeRecord, ParLevel, ParSafetyRecord};
use arraymem_ir::validate::lmad_slice_is_injective;
use arraymem_ir::{BinOp, ElemType, Program, Type, UnOp};
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
/// the runtime disjointness cross-check (enumeration would dominate).
const FOOTPRINT_CAP: i64 = 1 << 20;

/// A prepared plan in a [`Session`]'s cache. Cheap to copy; only valid
/// for the session that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanHandle(usize);

pub use crate::cache::PlanStats;

struct Machine<'a> {
    store: &'a mut MemStore,
    kernels: &'a KernelRegistry,
    regs: Vec<Value>,
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
    store: MemStore,
    cache: PlanCache,
    /// Session-local handle table: `PlanHandle(i)` indexes here.
    handles: Vec<Arc<ExecPlan>>,
    by_key: HashMap<u64, usize>,
    /// Outcome of the most recent `prepare`: (was answered without
    /// lowering, lowering time if not). Stamped onto the next run's
    /// [`Stats`].
    last_prepare: (bool, Duration),
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
            last_prepare: (true, Duration::ZERO),
        }
    }

    /// The session's memory store (tests attach arenas through this).
    pub fn store_mut(&mut self) -> &mut MemStore {
        &mut self.store
    }

    /// Lower a compiled program and the records its compile produced —
    /// circuit checks (`Report::checks`), merge records (`Report::merges`)
    /// and parallel-safety records (`Report::par_safety`) — into an
    /// executable plan, or return the cached handle if a structurally
    /// identical request (same IR fingerprint, kernel registry and record
    /// sets) was prepared before. The records are the compiler→executor
    /// contract: merges carry the carried releases the plan executes and
    /// the footprint pairs checked mode re-proves, par-safety verdicts
    /// pick each kernel map's schedule, and the plan stamps
    /// `Stats::blocks_merged`.
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
        self.last_prepare = (outcome.hit, outcome.build_time);
        let i = match self.by_key.get(&outcome.key) {
            Some(&i) => i,
            None => {
                self.handles.push(plan);
                self.by_key.insert(outcome.key, self.handles.len() - 1);
                self.handles.len() - 1
            }
        };
        Ok(PlanHandle(i))
    }

    /// Cumulative prepare accounting of the session's cache (the harness
    /// asserts `cache_hits == runs - builds` per benchmarked case).
    pub fn plan_stats(&self) -> PlanStats {
        self.cache.stats()
    }

    /// The prepared plan behind a handle (pretty-printing, inspection).
    pub fn plan(&self, h: PlanHandle) -> &ExecPlan {
        &self.handles[h.0]
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
        let (hit, build) = self.last_prepare;
        let plan = Arc::clone(&self.handles[h.0]);
        let r = execute_plan(&mut self.store, &plan, inputs, kernels, mode, threads);
        r.map(|(out, mut stats)| {
            stats.plan_cache_hit = hit;
            stats.plan_build_time = build;
            (out, stats)
        })
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
/// results, release everything still live back to the free lists. This is
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
    let result = Machine {
        store,
        kernels,
        regs: vec![Value::I64(0); plan.num_slots() as usize],
        stats: Stats::default(),
        threads: threads.max(1),
        mode,
        cur_stm: None,
    }
    .run(plan, inputs);
    // Results were deep-copied out, so everything the run allocated —
    // blocks still parked in color slabs included — can feed the next
    // run's allocations. A failed run releases too: a rejected request
    // must not pin its tenant's memory.
    store.drain_colors();
    store.release_all_live();
    result
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
        self.store.begin_colors(plan.num_colors);
        let t0 = Instant::now();
        self.exec_stream(&plan.body)?;
        self.stats.total_time = t0.elapsed();
        if self.checked() {
            self.verify_merges(&plan.merge_checks);
        }
        self.stats.take_store_counters(self.store);
        self.stats.blocks_merged = plan.blocks_merged;
        let mut out = Vec::with_capacity(plan.results.len());
        for (slot, v) in &plan.results {
            self.cur_stm = Some(*v);
            let value = self.regs[*slot as usize].clone();
            out.push(self.extract(&value));
        }
        Ok((out, std::mem::take(&mut self.stats)))
    }

    fn extract(&mut self, v: &Value) -> OutputValue {
        match v {
            Value::I64(x) => OutputValue::I64(*x),
            Value::F32(x) => OutputValue::F32(*x),
            Value::F64(x) => OutputValue::F64(*x),
            Value::Bool(x) => OutputValue::Bool(*x),
            Value::Mem(_) => OutputValue::I64(0),
            Value::Array(a) => {
                // Result extraction is a read like any other: never-written
                // or already-released result cells are exactly what escapes
                // to the caller.
                self.check_read(a.block, &a.ixfn);
                let view = self.view(a);
                match a.elem {
                    ElemType::F32 => OutputValue::ArrayF32(download(&view, a.elem)),
                    ElemType::F64 => OutputValue::ArrayF64(download(&view, a.elem)),
                    ElemType::I64 | ElemType::Bool => {
                        OutputValue::ArrayI64(download(&view, a.elem))
                    }
                }
            }
        }
    }

    fn load_param(&mut self, spec: &ParamSpec, input: &InputValue) -> Result<(), String> {
        let v = spec.var;
        self.regs[spec.slot as usize] = match (&spec.ty, input) {
            (Type::Scalar(ElemType::I64), InputValue::I64(x)) => Value::I64(*x),
            (Type::Scalar(ElemType::F32), InputValue::F32(x)) => Value::F32(*x),
            (Type::Scalar(ElemType::F64), InputValue::F64(x)) => Value::F64(*x),
            (Type::Scalar(ElemType::Bool), InputValue::Bool(x)) => Value::Bool(*x),
            (Type::Array { elem, .. }, arr) => {
                let shape_c =
                    eval_shape(&spec.shape, &self.regs).ok_or("unresolved param shape")?;
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
                    self.regs[ms as usize] = Value::Mem(block);
                }
                Value::Array(ArrayRef::new(
                    block,
                    *elem,
                    ConcreteIxFn::row_major(&shape_c),
                ))
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
        if self.store.shadow_enabled() {
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
        if !self.store.shadow_enabled() {
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
        if !self.store.shadow_enabled() {
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
        if !self.store.shadow_enabled() || ixfn.rank() == 0 {
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

    /// An array operand about to be read in full.
    fn operand(&mut self, slot: Slot) -> ArrayRef {
        let a = self.regs[slot as usize].as_array().clone();
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
        self.regs[slot as usize] = Value::Array(a);
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
        let mut pc = 0usize;
        while pc < s.instrs.len() {
            if let Some(v) = s.blame[pc] {
                self.cur_stm = Some(v);
            }
            match &s.instrs[pc] {
                Instr::Jump { target } => {
                    pc = *target;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } => {
                    let t = *target;
                    if !self.eval_lexp(cond)?.as_bool() {
                        pc = t;
                        continue;
                    }
                }
                Instr::JumpIfGe { a, b, target } => {
                    if self.regs[*a as usize].as_i64() >= self.regs[*b as usize].as_i64() {
                        pc = *target;
                        continue;
                    }
                }
                i => self.exec_instr(i)?,
            }
            pc += 1;
        }
        Ok(())
    }

    fn exec_instr(&mut self, instr: &Instr) -> Result<(), String> {
        match instr {
            Instr::Scalar { dst, elem, exp } => {
                let v = self.eval_lexp(exp)?;
                self.regs[*dst as usize] = coerce(v, *elem);
            }
            Instr::Alloc {
                dst,
                elem,
                size,
                color,
            } => {
                let n = size.eval(&self.regs).ok_or("unresolved alloc size")?;
                let n = n.max(0) as usize;
                let block = match color {
                    Some(c) => self.store.alloc_colored(*elem, n, *c),
                    None => self.store.try_alloc(*elem, n),
                }?;
                self.regs[*dst as usize] = Value::Mem(block);
            }
            Instr::Iota { dest } => {
                let dst = self.fresh_dest(dest)?;
                let view = self.view_mut(&dst);
                let n = view.num_elems();
                for i in 0..n {
                    view.set(i, &Value::I64(i));
                }
                self.bind_written(dest.slot, dst);
            }
            Instr::Scratch { dest } => {
                let dst = self.fresh_dest(dest)?;
                self.regs[dest.slot as usize] = Value::Array(dst);
            }
            Instr::Replicate { dest, value } => {
                let v = self.eval_lexp(value)?;
                let dst = self.fresh_dest(dest)?;
                self.view_mut(&dst).fill(&v);
                self.bind_written(dest.slot, dst);
            }
            Instr::Copy { dest, src } => {
                let src_a = self.operand(*src);
                let dst = self.fresh_dest(dest)?;
                let (sv, dv) = (self.view(&src_a), self.view_mut(&dst));
                self.copy_into(dst.block, &dv, &sv);
                self.regs[dest.slot as usize] = Value::Array(dst);
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
                self.regs[dest.slot as usize] = Value::Array(dst);
            }
            Instr::Transform { dest, src, tr } => {
                let src_a = self.regs[*src as usize].as_array().clone();
                let ixfn = tr
                    .map(|p| p.eval(&self.regs))
                    .and_then(|tr| src_a.ixfn.transform(&tr))
                    .ok_or("unsupported concrete transform")?;
                if self.mode == Mode::Pure {
                    // Materialize the transformed view into a fresh array.
                    let dst = self.fresh_dest(dest)?;
                    let sv = View::new(self.store.raw(src_a.block), ixfn);
                    let dv = self.view_mut(&dst);
                    copy_view(&dv, &sv);
                    self.regs[dest.slot as usize] = Value::Array(dst);
                } else {
                    self.regs[dest.slot as usize] =
                        Value::Array(ArrayRef::new(src_a.block, src_a.elem, ixfn));
                }
            }
            Instr::Gather { dest, src, idx } => {
                let src_a = self.regs[*src as usize].as_array().clone();
                let idx_a = self.operand(*idx);
                if idx_a.elem != ElemType::I64 {
                    return Err("gather index array must be i64".into());
                }
                let dst = self.fresh_dest(dest)?;
                let iv = self.view(&idx_a);
                let sv = self.view(&src_a);
                let dv = self.view_mut(&dst);
                let n = iv.num_elems();
                let extent = src_a.ixfn.num_elems();
                let t = Instant::now();
                for k in 0..n.max(0) {
                    let j = iv.get(k).as_i64();
                    if j < 0 || j >= extent {
                        self.oob_lane("gather", k, j, extent)?;
                        continue;
                    }
                    if self.store.shadow_enabled() {
                        self.check_cell(src_a.block, src_a.ixfn.index_flat(j), &src_a.ixfn);
                    }
                    dv.copy_elem(k, &sv, j);
                }
                self.stats.copy_time += t.elapsed();
                self.stats.bytes_copied += n.max(0) as u64 * dst.elem.size_bytes() as u64;
                self.stats.num_copies += 1;
                self.bind_written(dest.slot, dst);
            }
            Instr::MapKernel(mk) => {
                let width = mk.width.eval(&self.regs).ok_or("unresolved map width")?;
                let dst = self.fresh_dest(&mk.dest)?;
                let kernel = match mk.kernel {
                    Some(k) => self.kernels.by_index(k).clone(),
                    None => return Err(format!("unregistered kernel {}", mk.kernel_name)),
                };
                let inputs = self.input_views(&mk.inputs);
                let argv: Vec<Value> = mk
                    .args
                    .iter()
                    .map(|a| self.eval_lexp(a))
                    .collect::<Result<_, _>>()?;
                let row_shape_c =
                    eval_shape(&mk.row_shape, &self.regs).ok_or("unresolved row shape")?;
                let row_elems = elem_count(&row_shape_c)? as i64;
                let scalar_rows = row_shape_c.is_empty();
                let par_proven = mk.par == ParLevel::Safe;
                // Checked mode re-proves a `Safe` verdict concretely before
                // dispatching: enumerate every iteration's write footprint
                // and confirm no cell is written twice. A failed re-proof
                // reports [`Diagnostic::ParOverlap`] and the map falls back
                // to serial execution.
                let precheck_ran = par_proven && self.checked();
                let prechecked = precheck_ran && self.par_precheck(dst.block, &dst.ixfn, width);
                // Pure mode writes rows directly (fresh dense memory never
                // aliases inputs); Memory mode honours the pass's verdicts:
                // `Safe` writes result memory directly, `Serial` means
                // direct writes with *unproven* disjointness.
                let direct = scalar_rows || mk.in_place || self.mode == Mode::Pure || par_proven;
                let out_view = self.view_mut(&dst);
                // Private per-worker row buffers for the non-in-place case:
                // the mapnest's implicit result copy (§V-A(e)). The copy-out
                // targets a worker-private row, so buffered maps parallelize
                // freely; `Serial` maps never dispatch in parallel.
                let workers = match self.mode {
                    Mode::Pure => self.threads,
                    Mode::Memory if mk.par == ParLevel::Serial => 1,
                    Mode::Memory => self.threads,
                    // Under the sanitizer, only maps the pre-dispatch
                    // re-proof cleared may run parallel.
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
                        let priv_row =
                            ViewMut::new(temp_raw.unwrap(), ConcreteIxFn::from_lmad(priv_lmad));
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
                // The private-row scratch dies with the dispatch; recycle
                // it so the next non-in-place map pays no fresh alloc.
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
                // Dynamic race detector: no two iterations of the map may
                // write one cell. The kernel writes each row through the
                // result's index function with the outer dim fixed, so
                // enumerating those footprints covers its stores. For
                // `par_safety`-approved maps the pre-dispatch re-proof
                // already enumerated exactly these footprints (and reported
                // any overlap as `ParOverlap`), so skip the post-hoc pass.
                if !precheck_ran {
                    self.race_check(dst.block, &dst.ixfn, width);
                }
                self.bind_written(mk.dest.slot, dst);
            }
            Instr::MapLambda(ml) => {
                // Interpreted elementwise map over rank-1 inputs.
                let width = ml.width.eval(&self.regs).ok_or("unresolved map width")?;
                let dsts: Vec<ArrayRef> = ml
                    .dests
                    .iter()
                    .map(|d| self.fresh_dest(d))
                    .collect::<Result<_, _>>()?;
                let in_views = self.input_views(&ml.inputs);
                let out_views: Vec<ViewMut> = dsts.iter().map(|a| self.view_mut(a)).collect();
                let t0 = Instant::now();
                // Parameter slots are overwritten per element; body-local
                // slots are re-executed before any use, so the register
                // file needs no per-element reset.
                for i in 0..width {
                    for (p, view) in ml.params.iter().zip(&in_views) {
                        self.regs[*p as usize] = view.get(i);
                    }
                    self.exec_stream(&ml.body)?;
                    for (r, out) in ml.results.iter().zip(&out_views) {
                        out.set(i, &self.regs[*r as usize]);
                    }
                }
                self.stats.kernel_time += t0.elapsed();
                self.stats.kernel_launches += width.max(0) as u64;
                // The body's instructions moved `cur_stm`; provenance of
                // the map's results is the map statement itself.
                self.cur_stm = ml.stm_var;
                for (d, dst) in ml.dests.iter().zip(dsts) {
                    self.race_check(dst.block, &dst.ixfn, width);
                    self.bind_written(d.slot, dst);
                }
            }
            Instr::Update(u) => {
                let dst_a = self.regs[u.dst as usize].as_array().clone();
                // Pure mode: the update result is a fresh copy of dst with
                // the slice overwritten (true value semantics).
                let result = if self.mode == Mode::Pure {
                    let fresh = self.fresh_dest(&u.dest)?;
                    let sv = self.view(&dst_a);
                    let dv = self.view_mut(&fresh);
                    copy_view(&dv, &sv);
                    fresh
                } else {
                    dst_a.clone()
                };
                if let LSlice::Scatter(idx_slot) = &u.slice {
                    // Runtime-indexed write: element `k` of the source
                    // lands at flat position `idx[k]` of the destination.
                    // Lanes run in ascending order serially, so duplicate
                    // indices are legal and the last write wins — the
                    // schedule `par_safety` pinned with
                    // `ParReject::RuntimeIndexedWrite`.
                    let LUpdateSrc::Array(s) = &u.src else {
                        return Err("scatter requires an array source".into());
                    };
                    let (idx_a, src_a) = (self.operand(*idx_slot), self.operand(*s));
                    if idx_a.elem != ElemType::I64 {
                        return Err("scatter index array must be i64".into());
                    }
                    let iv = self.view(&idx_a);
                    let sv = self.view(&src_a);
                    let dview = self.view_mut(&result);
                    let n = iv.num_elems();
                    if sv.num_elems() != n {
                        return Err(format!(
                            "scatter source holds {} elements for {} indices",
                            sv.num_elems(),
                            n
                        ));
                    }
                    let extent = result.ixfn.num_elems();
                    let t = Instant::now();
                    let mut lanes_written = 0u64;
                    for k in 0..n.max(0) {
                        let j = iv.get(k).as_i64();
                        if j < 0 || j >= extent {
                            self.oob_lane("scatter", k, j, extent)?;
                            continue;
                        }
                        dview.copy_elem(j, &sv, k);
                        lanes_written += 1;
                        if self.store.shadow_enabled() {
                            self.mark_cell(result.block, result.ixfn.index_flat(j));
                        }
                    }
                    self.stats.copy_time += t.elapsed();
                    self.stats.bytes_copied += lanes_written * result.elem.size_bytes() as u64;
                    self.stats.num_copies += 1;
                    self.regs[u.dest.slot as usize] = Value::Array(result);
                    return Ok(());
                }
                let slice = match &u.slice {
                    LSlice::Tr(tr) => tr.map(|p| p.eval(&self.regs)),
                    LSlice::Point(es) => {
                        let mut fixed = Vec::with_capacity(es.len());
                        for e in es {
                            fixed.push(TripletSlice::Fix(self.eval_lexp(e)?.as_i64()));
                        }
                        Some(Transform::Slice(fixed))
                    }
                    LSlice::Scatter(_) => unreachable!("scatter handled above"),
                };
                let slice_ixfn = slice
                    .and_then(|tr| result.ixfn.transform(&tr))
                    .ok_or("bad slice")?;
                // The language's dynamic legality check for LMAD-slice
                // updates (§III-B): the written positions must not
                // self-overlap.
                if u.lmad_slice {
                    if let Some(l) = slice_ixfn.as_single() {
                        if !lmad_slice_is_injective(l) {
                            return Err("LMAD-slice update writes overlapping positions".into());
                        }
                    }
                }
                match &u.src {
                    LUpdateSrc::Scalar(se) => {
                        let v = self.eval_lexp(se)?;
                        let dview = ViewMut::new(self.store.raw(result.block), slice_ixfn);
                        dview.fill(&v);
                        self.mark_write(result.block, dview.ixfn());
                    }
                    LUpdateSrc::Array(s) => {
                        // Read check either way: an elided update's source
                        // was constructed directly in the destination
                        // slice, so its cells must already be written there.
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
                self.regs[u.dest.slot as usize] = Value::Array(result);
            }
            Instr::Release { slot, site } => {
                // Return blocks that just saw their last use to the free
                // list. The shadow layer records the release site: a later
                // read of the block names the statement whose plan entry
                // freed it.
                if let Value::Mem(id) = self.regs[*slot as usize] {
                    self.store.release_at(id, *site);
                }
            }
            Instr::ReleaseCarried {
                incoming,
                outgoing,
                guards,
                color,
                site,
            } => {
                // Release a loop's dead carried ping-pong block into its
                // color's slab, so the next iteration's colored `alloc`
                // takes it back. Guarded concretely: when the body
                // yielded the incoming block itself (or it backs another
                // carried slot), it is still live and stays put.
                let incoming_id = match self.regs[*incoming as usize] {
                    Value::Mem(id) => id,
                    _ => return Err("release-carried on a non-mem slot".into()),
                };
                let outgoing_id = match self.regs[*outgoing as usize] {
                    Value::Mem(id) => id,
                    _ => return Err("release-carried outgoing is not a mem slot".into()),
                };
                let aliased = incoming_id == outgoing_id
                    || guards.iter().any(
                        |g| matches!(self.regs[*g as usize], Value::Mem(id) if id == incoming_id),
                    );
                if !aliased {
                    self.store.release_colored(incoming_id, *color, *site);
                }
            }
            Instr::CopySlots { pairs } => {
                // Two-phase: loop merge parameters may permute, so all
                // sources are read before any destination is written.
                let vals: Vec<Value> = pairs
                    .iter()
                    .map(|(src, _)| self.regs[*src as usize].clone())
                    .collect();
                for ((_, dst), v) in pairs.iter().zip(vals) {
                    self.regs[*dst as usize] = v;
                }
            }
            Instr::VerifyChecks { checks } => {
                if self.checked() {
                    self.verify_checks(checks);
                }
            }
            Instr::Jump { .. } | Instr::JumpIfFalse { .. } | Instr::JumpIfGe { .. } => {
                unreachable!("jumps are handled by exec_stream")
            }
        }
        Ok(())
    }

    /// The footprint-pair loop behind both cross-checks: prove each
    /// (concrete) pair disjoint by enumeration, reporting every
    /// intersecting pair with the diagnostic `overlap(offset, a, b)`
    /// builds. Returns whether every pair enumerated cleanly — a pair too
    /// large to enumerate confirms nothing.
    fn pairs_disjoint<'p>(
        &mut self,
        pairs: impl Iterator<Item = (&'p ConcreteLmad, &'p ConcreteLmad)>,
        overlap: impl Fn(i64, &ConcreteLmad, &ConcreteLmad) -> Diagnostic,
    ) -> bool {
        let mut confirmed = true;
        for (a, b) in pairs {
            match footprint_check(a, b, FOOTPRINT_CAP) {
                FootprintCheck::Disjoint => {}
                FootprintCheck::TooLarge => confirmed = false,
                FootprintCheck::Overlap(off) => {
                    confirmed = false;
                    self.diag(overlap(off, a, b));
                }
            }
        }
        confirmed
    }

    /// Cross-check lowered short-circuit footprints with the current
    /// block's symbols in scope: evaluate the recorded symbolic footprints
    /// and prove each (write, later-use) pair disjoint. The instruction
    /// sits at the end of the defining block, so circuits inside loop
    /// bodies are re-verified per iteration against that iteration's
    /// concrete offsets. Checked mode only.
    fn verify_checks(&mut self, checks: &[crate::plan::LoweredCheck]) {
        for c in checks {
            let [writes, uses] = [&c.writes, &c.uses].map(|ls| {
                ls.iter()
                    .filter_map(|l| l.map(|p| p.eval(&self.regs)))
                    .collect::<Vec<ConcreteLmad>>()
            });
            let pairs = writes.iter().flat_map(|w| uses.iter().map(move |u| (w, u)));
            let disjoint = self.pairs_disjoint(pairs, |offset, w, u| Diagnostic::CircuitOverlap {
                root: c.root.clone(),
                stm: c.stm.clone(),
                offset,
                write_ixfn: format!("{w:?}"),
                use_ixfn: format!("{u:?}"),
            });
            // The check only counts as verified when every recorded
            // footprint evaluated as well.
            if disjoint && writes.len() == c.writes.len() && uses.len() == c.uses.len() {
                self.stats.circuits_verified += 1;
            }
        }
    }

    /// Re-prove every footprint-justified merge: each recorded
    /// (victim-tenant, resident) pair is evaluated to concrete LMADs
    /// against the final register file (merge footprints reference
    /// top-level scalars, which stay bound for the whole run) — the
    /// merge-pass analogue of [`verify_checks`](Machine::verify_checks).
    fn verify_merges(&mut self, checks: &[crate::plan::LoweredMergeCheck]) {
        for c in checks {
            let pairs: Vec<(ConcreteLmad, ConcreteLmad)> = c
                .pairs
                .iter()
                .filter_map(|(a, b)| {
                    Some((
                        a.map(|p| p.eval(&self.regs))?,
                        b.map(|p| p.eval(&self.regs))?,
                    ))
                })
                .collect();
            let disjoint =
                self.pairs_disjoint(pairs.iter().map(|(v, r)| (v, r)), |offset, v, r| {
                    Diagnostic::MergeOverlap {
                        host: c.host.clone(),
                        victim: c.victim.clone(),
                        offset,
                        victim_ixfn: format!("{v:?}"),
                        resident_ixfn: format!("{r:?}"),
                    }
                });
            if disjoint && pairs.len() == c.pairs.len() {
                self.stats.merges_verified += 1;
            }
        }
    }

    fn view(&mut self, a: &ArrayRef) -> View {
        View::with_class(self.store.raw(a.block), a.ixfn.clone(), a.class)
    }

    fn view_mut(&mut self, a: &ArrayRef) -> ViewMut {
        ViewMut::with_class(self.store.raw(a.block), a.ixfn.clone(), a.class)
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
            let block = match &self.regs[block_slot as usize] {
                Value::Mem(b) => *b,
                _ => return Err(format!("memory block {} unbound", md.block_var)),
            };
            let (ixfn, class) = md
                .ixfn
                .eval_access(&self.regs)
                .ok_or_else(|| format!("cannot evaluate index function of {}", d.var))?;
            Ok(ArrayRef::with_class(block, d.elem, ixfn, class))
        } else {
            let shape = eval_shape(&d.shape, &self.regs).ok_or("unresolved shape")?;
            let block = self.store.try_alloc(d.elem, elem_count(&shape)?)?;
            Ok(ArrayRef::new(
                block,
                d.elem,
                ConcreteIxFn::row_major(&shape),
            ))
        }
    }

    fn eval_lexp(&mut self, e: &LExp) -> Result<Value, String> {
        Ok(match e {
            LExp::Const(v) => v.clone(),
            LExp::Slot(s) => self.regs[*s as usize].clone(),
            LExp::Size(p) => Value::I64(p.eval(&self.regs).ok_or("unresolved size expression")?),
            LExp::Bin(op, a, b) => {
                let x = self.eval_lexp(a)?;
                let y = self.eval_lexp(b)?;
                eval_bin(*op, &x, &y)?
            }
            LExp::Un(op, a) => {
                let x = self.eval_lexp(a)?;
                eval_un(*op, &x)?
            }
            LExp::Index { arr, idx } => {
                let a = self.regs[*arr as usize].as_array().clone();
                let idx: Vec<i64> = idx
                    .iter()
                    .map(|i| Ok(self.eval_lexp(i)?.as_i64()))
                    .collect::<Result<_, String>>()?;
                if self.store.shadow_enabled() {
                    let off = a.ixfn.index(&idx);
                    self.check_cell(a.block, off, &a.ixfn);
                }
                self.view(&a).get_at(&idx)
            }
            LExp::Select(c, t, f) => {
                if self.eval_lexp(c)?.as_bool() {
                    self.eval_lexp(t)?
                } else {
                    self.eval_lexp(f)?
                }
            }
        })
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

fn coerce(v: Value, elem: Option<ElemType>) -> Value {
    match elem {
        Some(ElemType::F32) => Value::F32(v.as_f32()),
        Some(ElemType::F64) => Value::F64(v.as_f64()),
        Some(ElemType::I64) => Value::I64(v.as_i64()),
        Some(ElemType::Bool) => Value::Bool(v.as_bool()),
        None => v,
    }
}

fn eval_bin(op: BinOp, x: &Value, y: &Value) -> Result<Value, String> {
    use BinOp::*;
    // The float arm, once for both widths.
    macro_rules! float_bin {
        ($v:ident, $a:expr, $b:expr) => {{
            let (a, b) = ($a, $b);
            match op {
                Add => Value::$v(a + b),
                Sub => Value::$v(a - b),
                Mul => Value::$v(a * b),
                Div => Value::$v(a / b),
                Rem => Value::$v(a % b),
                Min => Value::$v(a.min(b)),
                Max => Value::$v(a.max(b)),
                Eq => Value::Bool(a == b),
                Ne => Value::Bool(a != b),
                Lt => Value::Bool(a < b),
                Le => Value::Bool(a <= b),
                And | Or => return Err("boolean op on floats".into()),
            }
        }};
    }
    Ok(match (x, y) {
        (Value::F32(_), _) | (_, Value::F32(_)) => float_bin!(F32, x.as_f32(), y.as_f32()),
        (Value::F64(_), _) | (_, Value::F64(_)) => float_bin!(F64, x.as_f64(), y.as_f64()),
        (Value::Bool(a), Value::Bool(b)) => match op {
            And => Value::Bool(*a && *b),
            Or => Value::Bool(*a || *b),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            _ => return Err("arithmetic on booleans".into()),
        },
        _ => {
            let (a, b) = (x.as_i64(), y.as_i64());
            // Operands are program inputs: a zero divisor (or `MIN / -1`)
            // is the request's error, never a panic.
            let undefined = || format!("integer {op:?} of {a} by {b} is undefined");
            match op {
                Add => Value::I64(a + b),
                Sub => Value::I64(a - b),
                Mul => Value::I64(a * b),
                Div => Value::I64(a.checked_div_euclid(b).ok_or_else(undefined)?),
                Rem => Value::I64(a.checked_rem_euclid(b).ok_or_else(undefined)?),
                Min => Value::I64(a.min(b)),
                Max => Value::I64(a.max(b)),
                Eq => Value::Bool(a == b),
                Ne => Value::Bool(a != b),
                Lt => Value::Bool(a < b),
                Le => Value::Bool(a <= b),
                And => Value::Bool(a != 0 && b != 0),
                Or => Value::Bool(a != 0 || b != 0),
            }
        }
    })
}

fn eval_un(op: UnOp, x: &Value) -> Result<Value, String> {
    use UnOp::*;
    // A float function at the operand's width (non-floats widen to f32).
    let float = |f64_fn: fn(f64) -> f64, f32_fn: fn(f32) -> f32| match x {
        Value::F64(v) => Value::F64(f64_fn(*v)),
        v => Value::F32(f32_fn(v.as_f32())),
    };
    Ok(match op {
        Neg => match x {
            Value::F32(v) => Value::F32(-v),
            Value::F64(v) => Value::F64(-v),
            Value::I64(v) => Value::I64(-v),
            _ => return Err("neg on non-number".into()),
        },
        Not => Value::Bool(!x.as_bool()),
        Sqrt => float(f64::sqrt, f32::sqrt),
        Exp => float(f64::exp, f32::exp),
        Log => float(f64::ln, f32::ln),
        Abs => match x {
            Value::F32(v) => Value::F32(v.abs()),
            Value::F64(v) => Value::F64(v.abs()),
            Value::I64(v) => Value::I64(v.abs()),
            _ => return Err("abs on non-number".into()),
        },
        ToF32 => Value::F32(x.as_f32()),
        ToF64 => Value::F64(x.as_f64()),
        ToI64 => Value::I64(x.as_i64()),
    })
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
