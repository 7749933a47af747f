//! Lowering: from the nested IR to a flat, executable [`ExecPlan`].
//!
//! The paper's endgame is code generation — LMAD index functions inlined
//! at every access, no interpretive overhead at run time (§VII). This
//! module is that split for our VM: all per-program work that does not
//! depend on input *values* happens once, here, and the executor
//! ([`crate::vm`]) replays the result:
//!
//! - nested `Block`s, `if` and `loop` flatten into one linear instruction
//!   stream with jump instructions (lambda map bodies keep a nested
//!   stream, executed per element);
//! - every `Var` resolves to a dense `u32` **slot** — the executor's
//!   environment is a register file of `Copy` words plus a slot-parallel
//!   table of arrays, not a `HashMap`;
//! - every scalar expression is emitted once, inside its instruction, as
//!   straight-line code over numbered values ([`LExp`]; operands are
//!   slots, constants or earlier values, and forward jumps are `select`).
//!   Three readers share that one form: the evaluator runs it, the strips
//!   ([`crate::strip`]) type a lambda body's or a loop's code once per
//!   entry, and [`ExecPlan::pretty`] decodes it back to infix. Whether a
//!   body may run typed is a scan of the same code, recorded as `Ok` or
//!   the [`StripReject`] that keeps it element-wise or stepped;
//! - every coefficient of every index function, transform and footprint
//!   goes `Poly → SlotPoly` (its symbols resolved to slots) here and
//!   `SlotPoly → i64` in the executor, both through the LMAD family's one
//!   `map`: what the plan holds is the compiler's `IndexFn`/`Transform`/
//!   `Lmad` over another coefficient type, and what the executor computes
//!   with is the same structure over integers. Fully-constant index
//!   functions are evaluated **now**, their [`AccessClass`] recorded in
//!   the plan, and every execution shares the one copy;
//! - kernel names resolve to dense registry indices once;
//! - the compiler's [`ReleasePlan`] is fused into the stream as explicit
//!   [`Instr::Release`] instructions — no per-run `ReleasePlan::compute`;
//! - checked-mode [`CircuitCheck`]s lower to [`Instr::VerifyChecks`] at
//!   the end of the block containing the circuit statement, with their
//!   footprint symbols pre-resolved to slots;
//! - of the [`MergeRecord`]s, a `CarriedRelease` lowers to an
//!   [`Instr::ReleaseCarried`] after its anchor statement (its color is a
//!   compile-time fact the executor does not read: the released block
//!   goes to the free list like any other); a `Share` already happened in
//!   the IR and is only counted.
//!
//! Diagnostics still name source statements: every instruction carries a
//! blame entry (instruction index → originating statement `Var`) in a
//! side table parallel to the stream.

use crate::kernel::KernelRegistry;
use crate::value::{Tag, Value};
use arraymem_core::{CircuitCheck, MergeRecord, ParLevel, ParSafetyRecord, ReleasePlan, Sabotage};
use arraymem_ir::{
    BinOp, Block, Constant, ElemType, Exp, MapBody, PatElem, Program, ScalarExp, SliceSpec, Stm,
    Type, UnOp, UpdateSrc, Var,
};
use arraymem_lmad::concrete::AccessClass;
use arraymem_lmad::{ConcreteIxFn, IndexFn, Lmad, Transform};
use arraymem_symbolic::{Poly, Sym};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// A dense value-slot index (the executor's register file and its array
/// table are indexed by these).
pub type Slot = u32;

/// A polynomial with its variables pre-resolved to slots; constants fold
/// at lower time. This is the coefficient type of everything LMAD-shaped
/// in a plan, and it prints as the polynomial it lowers.
#[derive(Clone)]
pub(crate) struct SlotPoly {
    poly: Poly,
    /// The slot of each of `poly`'s symbols; `None` for a symbol that was
    /// not in scope at lower time, which evaluates to "unresolved".
    slots: Vec<(Sym, Option<Slot>)>,
    konst: Option<i64>,
}

/// Why a size polynomial has no value under the register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unsized {
    /// A symbol is bound to no integer register.
    Unresolved,
    /// A step of the evaluation leaves `i64`: sizes are computed from the
    /// request's inputs, so the request's error, never a wrapped size.
    Overflows,
}

impl Unsized {
    /// The request's error about `what`.
    pub(crate) fn of(self, what: &str) -> String {
        match self {
            Unsized::Unresolved => format!("unresolved {what}"),
            Unsized::Overflows => format!("{what} overflows"),
        }
    }
}

impl SlotPoly {
    pub(crate) fn eval(&self, regs: &[Value]) -> Result<i64, Unsized> {
        if let Some(k) = self.konst {
            return Ok(k);
        }
        // A handful of size symbols at most: a linear scan beats hashing.
        let lookup = |s| {
            let (_, slot) = self.slots.iter().find(|(v, _)| *v == s)?;
            let v = regs[(*slot)? as usize];
            matches!(v.tag(), Tag::I64 | Tag::Bool).then(|| v.as_i64())
        };
        // The evaluation stops at the first lookup or step without a value.
        let unbound = Cell::new(false);
        let value = self.poly.eval(|s| {
            let v = lookup(s);
            unbound.set(v.is_none());
            v
        });
        value.ok_or_else(|| match unbound.get() {
            true => Unsized::Unresolved,
            false => Unsized::Overflows,
        })
    }
}

/// The coefficients `map` meets, evaluated: the first without a value
/// says why.
pub(crate) fn eval_all<T>(
    regs: &[Value],
    map: impl FnOnce(&mut dyn FnMut(&SlotPoly) -> Option<i64>) -> Option<T>,
) -> Result<T, Unsized> {
    let mut why = Unsized::Unresolved;
    let value = map(&mut |p| p.eval(regs).map_err(|e| why = e).ok());
    value.ok_or(why)
}

impl std::fmt::Debug for SlotPoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.poly)
    }
}

/// Evaluate a lowered shape against the register file.
pub(crate) fn eval_shape(shape: &[SlotPoly], regs: &[Value]) -> Result<Vec<i64>, Unsized> {
    shape.iter().map(|p| p.eval(regs)).collect()
}

/// An index function lowered against the slot scope. `Ready` means every
/// polynomial was constant: the integer index function *and its access
/// class* are computed once per plan, never per run — every array a run
/// binds to it shares the plan's copy.
#[derive(Clone, Debug)]
pub(crate) enum LoweredIxFn {
    Ready {
        ixfn: Arc<ConcreteIxFn>,
        class: AccessClass,
    },
    Dynamic(IndexFn<SlotPoly>),
}

impl LoweredIxFn {
    pub(crate) fn eval_access(
        &self,
        regs: &[Value],
    ) -> Result<(Arc<ConcreteIxFn>, AccessClass), Unsized> {
        match self {
            LoweredIxFn::Ready { ixfn, class } => Ok((Arc::clone(ixfn), *class)),
            LoweredIxFn::Dynamic(ixfn) => {
                let c = eval_all(regs, |f| ixfn.map(f))?;
                let class = c.classify();
                Ok((Arc::new(c), class))
            }
        }
    }
}

/// Where a step of scalar code finds an operand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arg {
    /// A register.
    Slot(Slot),
    /// Constant `k` of the code.
    Const(u32),
    /// The value step `k` of the code computed.
    Val(u32),
}

/// One step of lowered scalar code; step `k` computes value `k`. Steps
/// run in order, so operands are evaluated left to right, and a `select`
/// is `jump-if-false c E; t…; jump t X; E: f…; X: move f` — only the arm
/// it picks runs, and either arm leaves its value as value `X`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// The value of size polynomial `k` of the code.
    Size(u32),
    Bin(BinOp, Arg, Arg),
    Un(UnOp, Arg),
    /// The element of the array in slot `arr` at the `rank` coordinates
    /// `coords[at..]` of the code.
    Index {
        arr: Slot,
        at: u32,
        rank: u32,
    },
    /// Continue at step `target` when the operand is false.
    JumpIfFalse(Arg, u32),
    /// Make the operand value `join`, and continue after that step.
    Jump(Arg, u32),
    /// The operand, as this step's value.
    Move(Arg),
}

/// Lowered scalar code: straight-line steps over numbered values,
/// operands slots, constants or earlier values and never names. An
/// expression has one result; a point ([`LSlice::Point`]) has one per
/// coordinate.
#[derive(Clone, Debug, Default)]
pub(crate) struct LExp {
    pub ops: Vec<Op>,
    pub consts: Vec<Value>,
    /// The size polynomials `Op::Size` refers to.
    pub sizes: Vec<SlotPoly>,
    /// The coordinates of every `Op::Index`.
    pub coords: Vec<Arg>,
    pub results: Vec<Arg>,
}

/// Destination of a fresh array creation: the result slot plus what each
/// mode needs — the lowered memory binding (`Memory`/`Checked`) and the
/// type's shape polynomials (`Pure` allocates dense).
#[derive(Clone, Debug)]
pub(crate) struct Dest {
    pub slot: Slot,
    pub var: Var,
    pub elem: ElemType,
    pub shape: Vec<SlotPoly>,
    pub mem: Option<MemDest>,
}

#[derive(Clone, Debug)]
pub(crate) struct MemDest {
    pub block: Option<Slot>,
    pub block_var: Var,
    pub ixfn: LoweredIxFn,
}

#[derive(Clone, Debug)]
pub(crate) struct ConcatArg {
    pub src: Slot,
    pub elided: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct MapKernelInstr {
    pub dest: Dest,
    pub width: SlotPoly,
    /// Dense registry index, resolved at lower time (`None` preserves the
    /// tree VM's lazy "unregistered kernel" error: it only fires if the
    /// map actually executes).
    pub kernel: Option<u32>,
    pub kernel_name: String,
    pub elem: ElemType,
    pub row_shape: Vec<SlotPoly>,
    pub inputs: Vec<Slot>,
    pub args: Vec<LExp>,
    pub in_place: bool,
    /// The `par_safety` stage's verdict for this mapnest. A map lowered
    /// without its record gets the conservative verdict: `Serial` when it
    /// writes its result directly, `NeedsBuffer` otherwise.
    pub par: ParLevel,
}

#[derive(Clone, Debug)]
pub(crate) struct MapLambdaInstr {
    pub dests: Vec<Dest>,
    pub width: SlotPoly,
    pub inputs: Vec<Slot>,
    /// One parameter slot per input, written per element.
    pub params: Vec<Slot>,
    /// The lambda body, a nested stream executed once per element.
    pub body: Stream,
    /// Body result slots, read back per element.
    pub results: Vec<Slot>,
    /// Whether `Memory` and `Checked` may run the body in strips, or why
    /// it runs element by element.
    pub strip: Result<(), StripReject>,
    /// Provenance of the map's results (restores blame after the body).
    pub stm_var: Option<Var>,
}

/// Why a body does not run typed — a lambda map in strips, a loop as one
/// superinstruction: what in it is not a straight line of arithmetic (in a
/// loop, and point accesses) over values fixed for the map or iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StripReject {
    /// An expression of a lambda body reads an array element (`a[i]`).
    Index,
    /// An expression picks an arm (`select`): only the arm picked may run.
    Select,
    /// A size expression over a value that differs per element or iteration.
    VaryingSize,
    /// The body branches or loops (`if`, `loop`).
    ControlFlow,
    /// The body makes or changes an array (a nested map, an update other
    /// than a loop's update of a point by a scalar, …).
    ArrayOp,
}

/// Can a body run typed — a lambda body in strips, a loop body (`in_loop`)
/// as one superinstruction? Only if it is scalar statements (in a loop also
/// point updates by a scalar, and circuit checks, no business of `Memory`)
/// whose code has no `select`, no size over a slot from `varying` on (the
/// body's own) and, in a strip, no `a[i]`: a scan of the code it runs.
fn strip_reject(body: &[Instr], varying: Slot, in_loop: bool) -> Result<(), StripReject> {
    for instr in body {
        let code = match instr {
            Instr::Scalar { exp, .. } => [Some(exp), None],
            Instr::Update(u) if in_loop => match (&u.slice, &u.src) {
                (LSlice::Point(at), LUpdateSrc::Scalar(src)) => [Some(at), Some(src)],
                _ => return Err(StripReject::ArrayOp),
            },
            Instr::VerifyChecks { .. } if in_loop => continue,
            Instr::Jump { .. }
            | Instr::JumpIfFalse { .. }
            | Instr::JumpIfGe { .. }
            | Instr::CopySlots { .. } => return Err(StripReject::ControlFlow),
            _ => return Err(StripReject::ArrayOp),
        };
        for exp in code.into_iter().flatten() {
            for op in &exp.ops {
                match *op {
                    Op::Bin(..) | Op::Un(..) => {}
                    Op::Size(k) => {
                        let slots = &exp.sizes[k as usize].slots;
                        if slots.iter().any(|(_, s)| s.is_some_and(|s| s >= varying)) {
                            return Err(StripReject::VaryingSize);
                        }
                    }
                    Op::Index { .. } if in_loop => {}
                    Op::Index { .. } => return Err(StripReject::Index),
                    Op::JumpIfFalse(..) | Op::Jump(..) | Op::Move(_) => {
                        return Err(StripReject::Select)
                    }
                }
            }
        }
    }
    Ok(())
}

#[derive(Clone, Debug)]
pub(crate) enum LSlice {
    /// Triplet or LMAD slicing.
    Tr(Transform<SlotPoly>),
    /// Point indexing: code that parks one coordinate per dimension.
    Point(LExp),
    /// Scatter: the slot holds the runtime index array; element `k` of
    /// the source lands at flat position `idx[k]` of the destination.
    Scatter(Slot),
}

#[derive(Clone, Debug)]
pub(crate) struct UpdateInstr {
    pub dest: Dest,
    pub dst: Slot,
    pub slice: LSlice,
    /// The slice came from `SliceSpec::Lmad` (dynamic injectivity check).
    pub lmad_slice: bool,
    pub src: LUpdateSrc,
    pub elided: bool,
}

#[derive(Clone, Debug)]
pub(crate) enum LUpdateSrc {
    Array(Slot),
    Scalar(LExp),
}

/// A checked-mode circuit check with its footprint symbols resolved.
#[derive(Clone, Debug)]
pub(crate) struct LoweredCheck {
    pub root: String,
    pub stm: String,
    pub writes: Vec<Lmad<SlotPoly>>,
    pub uses: Vec<Lmad<SlotPoly>>,
}

/// One lowered instruction.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    /// Evaluate a scalar expression into a slot, coercing to `elem`.
    Scalar {
        dst: Slot,
        elem: Option<ElemType>,
        exp: LExp,
    },
    Alloc {
        dst: Slot,
        elem: ElemType,
        size: SlotPoly,
    },
    Iota {
        dest: Dest,
    },
    Scratch {
        dest: Dest,
    },
    Replicate {
        dest: Dest,
        value: LExp,
    },
    Copy {
        dest: Dest,
        src: Slot,
    },
    Concat {
        dest: Dest,
        args: Vec<ConcatArg>,
    },
    Transform {
        dest: Dest,
        src: Slot,
        tr: Transform<SlotPoly>,
    },
    /// Runtime-indexed read: `dest[k] = src[idx[k]]` over the index
    /// array's length, with every index bounds-checked against `src`'s
    /// element count at execution time.
    Gather {
        dest: Dest,
        src: Slot,
        idx: Slot,
    },
    MapKernel(Box<MapKernelInstr>),
    MapLambda(Box<MapLambdaInstr>),
    Update(Box<UpdateInstr>),
    /// Return the memory block in `slot` to the store's free list (a
    /// fused `ReleasePlan` site), unless the slot's handle is stale.
    /// `site` names the statement after which the plan freed it —
    /// checked-mode blame for use-after-release.
    Release {
        slot: Slot,
        site: Option<Var>,
    },
    /// Release a loop's incoming carried block to the free list (a
    /// lowered [`MergeRecord::CarriedRelease`]): executed each iteration
    /// after the incoming block's last use, once the yield block exists.
    /// The identity guard skips the release when the incoming block *is*
    /// the outgoing one, or is still carried by another merge parameter
    /// (`guards`) — the static analysis proved the common case, the guard
    /// covers block identities only runtime can see.
    ReleaseCarried {
        /// Slot of the loop's mem merge parameter (the incoming block).
        incoming: Slot,
        /// Slot of the body's yield allocation (the outgoing block).
        outgoing: Slot,
        /// Slots of the loop's other mem merge parameters.
        guards: Vec<Slot>,
        site: Option<Var>,
    },
    /// Read all sources, then write all destinations (loop merge
    /// parameters may permute, so the copy is two-phase).
    CopySlots {
        pairs: Vec<(Slot, Slot)>,
    },
    Jump {
        target: usize,
    },
    JumpIfFalse {
        cond: LExp,
        target: usize,
    },
    /// Loop back-edge guard: jump when `regs[a] >= regs[b]`. `typed` says
    /// whether `Memory` may run the loop as one superinstruction, or why not.
    JumpIfGe {
        a: Slot,
        b: Slot,
        target: usize,
        typed: Result<(), StripReject>,
    },
    /// Checked mode: cross-check the short-circuit footprints recorded
    /// for the block that just finished executing.
    VerifyChecks {
        checks: Vec<LoweredCheck>,
    },
}

/// A linear instruction stream plus its blame side table: entry `i` is
/// the first pattern variable of the statement instruction `i` was
/// lowered from, so sanitizer diagnostics name source statements.
#[derive(Clone, Debug, Default)]
pub(crate) struct Stream {
    pub instrs: Vec<Instr>,
    pub blame: Vec<Option<Var>>,
}

impl Stream {
    fn push(&mut self, i: Instr, blame: Option<Var>) -> usize {
        self.instrs.push(i);
        self.blame.push(blame);
        self.instrs.len() - 1
    }
}

/// A lowered program parameter.
#[derive(Clone, Debug)]
pub(crate) struct ParamSpec {
    pub var: Var,
    pub ty: Type,
    pub slot: Slot,
    /// For arrays: the slot of the parameter's memory-block variable.
    pub mem_slot: Option<Slot>,
    /// For arrays: shape polynomials, resolvable against earlier params.
    pub shape: Vec<SlotPoly>,
}

/// An executable plan: the compiled-and-lowered form of one program.
/// Build once with [`lower_plan_full`] (or via `Session::prepare_full`,
/// which caches), execute many times in any [`crate::Mode`].
#[derive(Clone, Debug)]
pub struct ExecPlan {
    pub(crate) name: String,
    pub(crate) params: Vec<ParamSpec>,
    pub(crate) body: Stream,
    pub(crate) results: Vec<(Slot, Var)>,
    pub(crate) num_slots: u32,
    pub(crate) num_releases: usize,
    /// Share-type merge records lowered into this plan (count stamped
    /// onto [`crate::Stats::blocks_merged`] per run).
    pub(crate) blocks_merged: u64,
}

impl ExecPlan {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Slots in the register file.
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// Instructions in the top-level stream (nested lambda bodies not
    /// counted).
    pub fn num_instrs(&self) -> usize {
        self.body.instrs.len()
    }

    /// Fused release sites across all streams.
    pub fn num_releases(&self) -> usize {
        self.num_releases
    }
}

/// Lower a compiled program together with the records its compile
/// produced — the compiler→executor contract. The [`ReleasePlan`] is
/// computed here, once per plan, never per run. `checks` are the compile
/// report's circuit checks (checked-mode runs re-prove them; pass `&[]`
/// otherwise); `merges` carry the carried releases the plan executes (and
/// the merged-block count it reports); `par` picks each kernel
/// map's dispatch schedule (parallel in place, buffered, or serial). A
/// map without a record is scheduled conservatively, never trusted.
pub fn lower_plan_full(
    prog: &Program,
    kernels: &KernelRegistry,
    checks: &[CircuitCheck],
    merges: &[MergeRecord],
    par: &[ParSafetyRecord],
) -> Result<ExecPlan, String> {
    lower(prog, kernels, checks, merges, par, None)
}

/// [`lower_plan_full`] with one release decision deliberately wrong
/// (`Sabotage::EarlyRelease` or `Sabotage::EarlyCarriedRelease`; other
/// variants lower honestly): a checked-mode run of the plan must report
/// the premature release as a `UseAfterRelease` diagnostic.
#[doc(hidden)]
pub fn lower_plan_sabotaged(
    prog: &Program,
    kernels: &KernelRegistry,
    checks: &[CircuitCheck],
    merges: &[MergeRecord],
    par: &[ParSafetyRecord],
    sabotage: Sabotage,
) -> Result<ExecPlan, String> {
    lower(prog, kernels, checks, merges, par, Some(sabotage))
}

fn lower(
    prog: &Program,
    kernels: &KernelRegistry,
    checks: &[CircuitCheck],
    merges: &[MergeRecord],
    par: &[ParSafetyRecord],
    sabotage: Option<Sabotage>,
) -> Result<ExecPlan, String> {
    let release = ReleasePlan::compute(prog);
    let mut lw = Lowerer {
        scope: Scope::default(),
        release: &release,
        checks,
        merges,
        par: par.iter().map(|r| (r.stm, r.level)).collect(),
        kernels,
        num_releases: 0,
        pending_carried: Vec::new(),
        sabotage,
    };
    let mut params = Vec::with_capacity(prog.params.len());
    for (v, ty) in &prog.params {
        // Shapes may reference earlier scalar params only (the tree VM
        // loaded params left to right); lower them before binding `v`.
        let shape = match ty {
            Type::Array { shape, .. } => shape.iter().map(|p| lw.slot_poly(p)).collect(),
            _ => Vec::new(),
        };
        let slot = lw.scope.bind(*v);
        let mem_slot = match ty {
            Type::Array { .. } => Some(lw.scope.bind(param_block_sym(*v))),
            _ => None,
        };
        params.push(ParamSpec {
            var: *v,
            ty: ty.clone(),
            slot,
            mem_slot,
            shape,
        });
    }
    let mut body = Stream::default();
    let result_slots = lw.lower_block(&prog.body, &mut body)?;
    let results = result_slots
        .into_iter()
        .zip(&prog.body.result)
        .map(|(s, v)| (s, *v))
        .collect();
    let blocks_merged = merges
        .iter()
        .filter(|r| matches!(r, MergeRecord::Share { .. }))
        .count() as u64;
    Ok(ExecPlan {
        name: prog.name.clone(),
        params,
        body,
        results,
        num_slots: lw.scope.next,
        num_releases: lw.num_releases,
        blocks_merged,
    })
}

pub(crate) fn param_block_sym(v: Var) -> Var {
    // Canonical definition shared with the middle-end and the validator.
    arraymem_ir::param_block_sym(v)
}

/// Name→slot scope with an undo log, so nested blocks restore the
/// enclosing bindings on exit (value slots themselves are never reused:
/// a branch's locals simply become unreachable).
#[derive(Default)]
struct Scope {
    map: HashMap<Var, Slot>,
    undo: Vec<(Var, Option<Slot>)>,
    next: u32,
}

impl Scope {
    fn bind(&mut self, v: Var) -> Slot {
        let s = self.fresh();
        let old = self.map.insert(v, s);
        self.undo.push((v, old));
        s
    }

    fn fresh(&mut self) -> Slot {
        let s = self.next;
        self.next += 1;
        s
    }

    fn get(&self, v: Var) -> Option<Slot> {
        self.map.get(&v).copied()
    }

    fn mark(&self) -> usize {
        self.undo.len()
    }

    fn reset(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let (v, old) = self.undo.pop().expect("undo log underflow");
            match old {
                Some(s) => {
                    self.map.insert(v, s);
                }
                None => {
                    self.map.remove(&v);
                }
            }
        }
    }
}

struct Lowerer<'a> {
    scope: Scope,
    release: &'a ReleasePlan,
    checks: &'a [CircuitCheck],
    merges: &'a [MergeRecord],
    /// Parallel-safety verdicts keyed by the map statement's variable.
    par: HashMap<Var, ParLevel>,
    kernels: &'a KernelRegistry,
    num_releases: usize,
    /// Carried releases of the loop body currently being lowered: the
    /// `Loop` arm stages them (resolving the incoming/guard parameter
    /// slots), and the statement loop emits each one after its anchor
    /// statement.
    pending_carried: Vec<PendingCarried>,
    /// Mutation self-tests: `EarlyRelease` fires each scheduled release
    /// one statement early; `EarlyCarriedRelease` anchors every carried
    /// release at the yield `alloc` instead of the analyzed last use.
    /// Checked mode must catch either as a use after release.
    sabotage: Option<Sabotage>,
}

/// One carried release staged for the loop body being lowered.
struct PendingCarried {
    /// First pattern variable of the body statement to release after.
    anchor: Var,
    /// Slot of the loop's mem merge parameter.
    incoming: Slot,
    /// The body's yield allocation (resolved to a slot at emission, when
    /// it is in scope).
    yield_mem: Var,
    /// Slots of the loop's other mem merge parameters.
    guards: Vec<Slot>,
}

impl Lowerer<'_> {
    fn resolve(&self, v: Var) -> Result<Slot, String> {
        self.scope.get(v).ok_or_else(|| format!("unbound {v}"))
    }

    fn slot_poly(&self, p: &Poly) -> SlotPoly {
        SlotPoly {
            slots: p
                .vars()
                .into_iter()
                .map(|s| (s, self.scope.get(s)))
                .collect(),
            konst: p.as_const(),
            poly: p.clone(),
        }
    }

    fn lower_lmad(&self, l: &Lmad) -> Lmad<SlotPoly> {
        l.map(|p| Some(self.slot_poly(p)))
            .expect("lowering a coefficient cannot fail")
    }

    fn lower_transform(&self, tr: &Transform) -> Transform<SlotPoly> {
        tr.map(|p| Some(self.slot_poly(p)))
            .expect("lowering a coefficient cannot fail")
    }

    fn lower_ixfn(&self, ix: &IndexFn) -> LoweredIxFn {
        match ix.map(Poly::as_const) {
            Some(ixfn) => LoweredIxFn::Ready {
                class: ixfn.classify(),
                ixfn: Arc::new(ixfn),
            },
            None => LoweredIxFn::Dynamic(IndexFn {
                lmads: ix.lmads.iter().map(|l| self.lower_lmad(l)).collect(),
            }),
        }
    }

    fn lower_exp(&self, e: &ScalarExp) -> Result<LExp, String> {
        let mut code = LExp::default();
        let value = self.emit(e, &mut code)?;
        code.results.push(value);
        Ok(code)
    }

    /// Append the code of `e`; the operand its value is. A constant or a
    /// variable is its own (reading one cannot fail and has no effect);
    /// anything else is the value of the last step appended. Operands are
    /// emitted, and so evaluated, left to right.
    fn emit(&self, e: &ScalarExp, code: &mut LExp) -> Result<Arg, String> {
        let op = match e {
            ScalarExp::Const(c) => {
                code.consts.push(match c {
                    Constant::F32(x) => Value::f32(*x),
                    Constant::F64(x) => Value::f64(*x),
                    Constant::I64(x) => Value::i64(*x),
                    Constant::Bool(x) => Value::bool(*x),
                });
                return Ok(Arg::Const(code.consts.len() as u32 - 1));
            }
            ScalarExp::Var(v) => return Ok(Arg::Slot(self.resolve(*v)?)),
            ScalarExp::Size(p) => {
                code.sizes.push(self.slot_poly(p));
                Op::Size(code.sizes.len() as u32 - 1)
            }
            ScalarExp::Bin(op, a, b) => {
                let x = self.emit(a, code)?;
                Op::Bin(*op, x, self.emit(b, code)?)
            }
            ScalarExp::Un(op, a) => Op::Un(*op, self.emit(a, code)?),
            ScalarExp::Index(v, idx) => {
                let arr = self.resolve(*v)?;
                // A coordinate's own indexes append theirs after these.
                let (at, rank) = (code.coords.len(), idx.len());
                code.coords.resize(at + rank, Arg::Const(0));
                for (k, i) in idx.iter().enumerate() {
                    code.coords[at + k] = self.emit(i, code)?;
                }
                let (at, rank) = (at as u32, rank as u32);
                Op::Index { arr, at, rank }
            }
            ScalarExp::Select(c, t, f) => {
                let cond = self.emit(c, code)?;
                let to_else = code.ops.len();
                code.ops.push(Op::JumpIfFalse(cond, 0));
                let t = self.emit(t, code)?;
                let to_join = code.ops.len();
                code.ops.push(Op::Jump(t, 0));
                code.ops[to_else] = Op::JumpIfFalse(cond, code.ops.len() as u32);
                let f = self.emit(f, code)?;
                code.ops[to_join] = Op::Jump(t, code.ops.len() as u32);
                Op::Move(f)
            }
        };
        code.ops.push(op);
        Ok(Arg::Val(code.ops.len() as u32 - 1))
    }

    /// Lower a pattern element into a creation destination, binding its
    /// slot. The memory binding and shape lower against the *current*
    /// scope (the block variable was bound by an earlier `alloc`).
    fn lower_dest(&mut self, pe: &PatElem) -> Result<Dest, String> {
        let elem = pe.ty.elem().ok_or("array expected")?;
        let shape = pe.ty.shape().iter().map(|p| self.slot_poly(p)).collect();
        let mem = pe.mem.as_ref().map(|mb| MemDest {
            block: self.scope.get(mb.block),
            block_var: mb.block,
            ixfn: self.lower_ixfn(&mb.ixfn),
        });
        let slot = self.scope.bind(pe.var);
        Ok(Dest {
            slot,
            var: pe.var,
            elem,
            shape,
            mem,
        })
    }

    /// Lower a block's statements (with fused releases and, when
    /// matching, a trailing `VerifyChecks`) into `out`. Returns the
    /// result-variable slots; the scope is restored before returning.
    fn lower_block(&mut self, block: &Block, out: &mut Stream) -> Result<Vec<Slot>, String> {
        let mark = self.scope.mark();
        for (k, stm) in block.stms.iter().enumerate() {
            self.lower_stm(stm, out)?;
            let site = stm.pat.first().map(|p| p.var);
            // `EarlyRelease` shifts the schedule one statement left
            // (statement 0 also keeps its own releases).
            let skew = self.sabotage == Some(Sabotage::EarlyRelease);
            let due: &[Var] = if skew && k > 0 {
                &[]
            } else {
                self.release.after(block, k)
            };
            let early: &[Var] = if skew {
                self.release.after(block, k + 1)
            } else {
                &[]
            };
            for mv in due.iter().chain(early) {
                let slot = self.resolve(*mv)?;
                out.push(Instr::Release { slot, site }, site);
                self.num_releases += 1;
            }
            if !self.pending_carried.is_empty() {
                let pat0 = stm.pat.first().map(|p| p.var);
                for i in 0..self.pending_carried.len() {
                    let anchor = if self.sabotage == Some(Sabotage::EarlyCarriedRelease) {
                        self.pending_carried[i].yield_mem
                    } else {
                        self.pending_carried[i].anchor
                    };
                    if pat0 != Some(anchor) {
                        continue;
                    }
                    let outgoing = self.resolve(self.pending_carried[i].yield_mem)?;
                    let pc = &self.pending_carried[i];
                    out.push(
                        Instr::ReleaseCarried {
                            incoming: pc.incoming,
                            outgoing,
                            guards: pc.guards.clone(),
                            site,
                        },
                        site,
                    );
                }
            }
        }
        if !self.checks.is_empty() {
            let names: Vec<String> = block
                .stms
                .iter()
                .filter_map(|s| s.pat.first())
                .map(|p| p.var.to_string())
                .collect();
            let lowered: Vec<LoweredCheck> = self
                .checks
                .iter()
                .filter(|c| names.contains(&c.stm))
                .map(|c| LoweredCheck {
                    root: c.root.clone(),
                    stm: c.stm.clone(),
                    writes: c.writes.iter().map(|l| self.lower_lmad(l)).collect(),
                    uses: c.uses.iter().map(|l| self.lower_lmad(l)).collect(),
                })
                .collect();
            if !lowered.is_empty() {
                let blame = block.stms.last().and_then(|s| s.pat.first()).map(|p| p.var);
                out.push(Instr::VerifyChecks { checks: lowered }, blame);
            }
        }
        let slots = block
            .result
            .iter()
            .map(|v| self.resolve(*v))
            .collect::<Result<Vec<_>, _>>()?;
        self.scope.reset(mark);
        Ok(slots)
    }

    fn lower_stm(&mut self, stm: &Stm, out: &mut Stream) -> Result<(), String> {
        let blame = stm.pat.first().map(|p| p.var);
        match &stm.exp {
            Exp::Scalar(se) => {
                let exp = self.lower_exp(se)?;
                let elem = match &stm.pat[0].ty {
                    Type::Scalar(e) => Some(*e),
                    _ => None,
                };
                let dst = self.scope.bind(stm.pat[0].var);
                out.push(Instr::Scalar { dst, elem, exp }, blame);
            }
            Exp::Alloc { elem, size } => {
                let size = self.slot_poly(size);
                let dst = self.scope.bind(stm.pat[0].var);
                let elem = *elem;
                out.push(Instr::Alloc { dst, elem, size }, blame);
            }
            Exp::Iota(_) => {
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Iota { dest }, blame);
            }
            Exp::Scratch { .. } => {
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Scratch { dest }, blame);
            }
            Exp::Replicate { value, .. } => {
                let value = self.lower_exp(value)?;
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Replicate { dest, value }, blame);
            }
            Exp::Copy(src) => {
                let src = self.resolve(*src)?;
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Copy { dest, src }, blame);
            }
            Exp::Concat { args, elided } => {
                let args = args
                    .iter()
                    .zip(elided)
                    .map(|(a, el)| {
                        Ok(ConcatArg {
                            src: self.resolve(*a)?,
                            elided: *el,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Concat { dest, args }, blame);
            }
            Exp::Transform { src, tr } => {
                let src = self.resolve(*src)?;
                let tr = self.lower_transform(tr);
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Transform { dest, src, tr }, blame);
            }
            Exp::Gather { src, idx } => {
                let src = self.resolve(*src)?;
                let idx = self.resolve(*idx)?;
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(Instr::Gather { dest, src, idx }, blame);
            }
            Exp::Map(m) => self.lower_map(stm, m, out, blame)?,
            Exp::Update {
                dst,
                slice,
                src,
                elided,
            } => {
                let dst_slot = self.resolve(*dst)?;
                let (slice_l, lmad_slice) = match slice {
                    SliceSpec::Triplet(ts) => {
                        let tr = Transform::Slice(ts.clone());
                        (LSlice::Tr(self.lower_transform(&tr)), false)
                    }
                    SliceSpec::Lmad(l) => {
                        let tr = Transform::LmadSlice(l.clone());
                        (LSlice::Tr(self.lower_transform(&tr)), true)
                    }
                    SliceSpec::Point(es) => {
                        let mut code = LExp::default();
                        for e in es {
                            let at = self.emit(e, &mut code)?;
                            code.results.push(at);
                        }
                        (LSlice::Point(code), false)
                    }
                    SliceSpec::Scatter(idx) => (LSlice::Scatter(self.resolve(*idx)?), false),
                };
                let src_l = match src {
                    UpdateSrc::Array(s) => LUpdateSrc::Array(self.resolve(*s)?),
                    UpdateSrc::Scalar(se) => LUpdateSrc::Scalar(self.lower_exp(se)?),
                };
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(
                    Instr::Update(Box::new(UpdateInstr {
                        dest,
                        dst: dst_slot,
                        slice: slice_l,
                        lmad_slice,
                        src: src_l,
                        elided: *elided,
                    })),
                    blame,
                );
            }
            Exp::If {
                cond,
                then_b,
                else_b,
            } => {
                let cond = self.lower_exp(cond)?;
                let pat_slots: Vec<Slot> =
                    stm.pat.iter().map(|pe| self.scope.bind(pe.var)).collect();
                let jif = out.push(Instr::JumpIfFalse { cond, target: 0 }, blame);
                let then_res = self.lower_block(then_b, out)?;
                out.push(copy_slots(then_res, &pat_slots), blame);
                let jend = out.push(Instr::Jump { target: 0 }, blame);
                let else_start = out.instrs.len();
                patch_target(&mut out.instrs[jif], else_start);
                let else_res = self.lower_block(else_b, out)?;
                out.push(copy_slots(else_res, &pat_slots), blame);
                let end = out.instrs.len();
                patch_target(&mut out.instrs[jend], end);
            }
            Exp::Loop {
                params,
                inits,
                index,
                count,
                body,
            } => {
                let count = self.lower_exp(&ScalarExp::Size(count.clone()))?;
                let init_slots = inits
                    .iter()
                    .map(|v| self.resolve(*v))
                    .collect::<Result<Vec<_>, _>>()?;
                let (mark, loop_slots) = (self.scope.mark(), self.scope.next);
                let param_slots: Vec<Slot> =
                    params.iter().map(|pp| self.scope.bind(pp.var)).collect();
                let idx_slot = self.scope.bind(*index);
                let count_slot = self.scope.fresh();
                out.push(copy_slots(init_slots, &param_slots), blame);
                out.push(counter(count_slot, count), blame);
                let zero = self.lower_exp(&ScalarExp::i64(0))?;
                out.push(counter(idx_slot, zero), blame);
                let head = out.instrs.len();
                let jge = out.push(
                    Instr::JumpIfGe {
                        a: idx_slot,
                        b: count_slot,
                        target: 0,
                        typed: Ok(()),
                    },
                    blame,
                );
                // Stage this loop's carried releases for the body: resolve
                // the incoming/guard parameter slots now, emit after each
                // anchor statement inside `lower_block`.
                let mut pending: Vec<PendingCarried> = Vec::new();
                for r in self.merges {
                    let MergeRecord::CarriedRelease {
                        loop_mem,
                        yield_mem,
                        after_stm,
                        ..
                    } = r
                    else {
                        continue;
                    };
                    let Some(k) = params.iter().position(|pp| pp.var == *loop_mem) else {
                        continue;
                    };
                    let guards: Vec<Slot> = params
                        .iter()
                        .enumerate()
                        .filter(|(k2, pp)| *k2 != k && matches!(pp.ty, Type::Mem))
                        .map(|(k2, _)| param_slots[k2])
                        .collect();
                    pending.push(PendingCarried {
                        anchor: *after_stm,
                        incoming: param_slots[k],
                        yield_mem: *yield_mem,
                        guards,
                    });
                }
                let saved = std::mem::replace(&mut self.pending_carried, pending);
                let body_res = self.lower_block(body, out)?;
                self.pending_carried = saved;
                out.push(copy_slots(body_res, &param_slots), blame);
                let next = ScalarExp::bin(BinOp::Add, ScalarExp::var(*index), ScalarExp::i64(1));
                out.push(counter(idx_slot, self.lower_exp(&next)?), blame);
                out.push(Instr::Jump { target: head }, blame);
                let end = out.instrs.len();
                // The body runs up to the back edge, the counter and the jump.
                let verdict = strip_reject(&out.instrs[jge + 1..end - 3], loop_slots, true);
                patch_target(&mut out.instrs[jge], end);
                if let Instr::JumpIfGe { typed, .. } = &mut out.instrs[jge] {
                    *typed = verdict;
                }
                // The merge parameters' final values become the pattern's.
                self.scope.reset(mark);
                let pat_slots: Vec<Slot> =
                    stm.pat.iter().map(|pe| self.scope.bind(pe.var)).collect();
                out.push(copy_slots(param_slots, &pat_slots), blame);
            }
        }
        Ok(())
    }

    fn lower_map(
        &mut self,
        stm: &Stm,
        m: &arraymem_ir::MapExp,
        out: &mut Stream,
        blame: Option<Var>,
    ) -> Result<(), String> {
        let width = self.slot_poly(&m.width);
        let inputs = m
            .inputs
            .iter()
            .map(|v| self.resolve(*v))
            .collect::<Result<Vec<_>, _>>()?;
        match &m.body {
            MapBody::Kernel {
                name,
                elem,
                row_shape,
                args,
                ..
            } => {
                let args = args
                    .iter()
                    .map(|a| self.lower_exp(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let direct = m.in_place_result || row_shape.is_empty();
                let par = match self.par.get(&stm.pat[0].var) {
                    Some(level) => *level,
                    None if direct => ParLevel::Serial,
                    None => ParLevel::NeedsBuffer,
                };
                let row_shape = row_shape.iter().map(|p| self.slot_poly(p)).collect();
                let dest = self.lower_dest(&stm.pat[0])?;
                out.push(
                    Instr::MapKernel(Box::new(MapKernelInstr {
                        dest,
                        width,
                        kernel: self.kernels.resolve(name),
                        kernel_name: name.clone(),
                        elem: *elem,
                        row_shape,
                        inputs,
                        args,
                        in_place: m.in_place_result,
                        par,
                    })),
                    blame,
                );
            }
            MapBody::Lambda { params, body } => {
                let (mark, body_slots) = (self.scope.mark(), self.scope.next);
                let param_slots: Vec<Slot> =
                    params.iter().map(|(p, _)| self.scope.bind(*p)).collect();
                let mut body_stream = Stream::default();
                let results = self.lower_block(body, &mut body_stream)?;
                self.scope.reset(mark);
                let strip = strip_reject(&body_stream.instrs, body_slots, false);
                let dests = stm
                    .pat
                    .iter()
                    .map(|pe| self.lower_dest(pe))
                    .collect::<Result<Vec<_>, _>>()?;
                out.push(
                    Instr::MapLambda(Box::new(MapLambdaInstr {
                        dests,
                        width,
                        inputs,
                        params: param_slots,
                        body: body_stream,
                        results,
                        strip,
                        stm_var: blame,
                    })),
                    blame,
                );
            }
        }
        Ok(())
    }
}

/// `to[k] <- from[k]` for every `k`, all read before any is written.
fn copy_slots(from: Vec<Slot>, to: &[Slot]) -> Instr {
    let pairs = from.into_iter().zip(to.iter().copied()).collect();
    Instr::CopySlots { pairs }
}

/// `dst <- exp` for a loop's own counters, which declare no type.
fn counter(dst: Slot, exp: LExp) -> Instr {
    Instr::Scalar {
        dst,
        elem: None,
        exp,
    }
}

fn patch_target(i: &mut Instr, t: usize) {
    match i {
        Instr::Jump { target }
        | Instr::JumpIfFalse { target, .. }
        | Instr::JumpIfGe { target, .. } => *target = t,
        _ => unreachable!("patching a non-jump"),
    }
}

// ---------------------------------------------------------------------------
// Pretty printing (golden-snapshot friendly).

/// Strip `#<digits>` freshness suffixes from symbol names, so the rendered
/// plan is stable across interner states (test order, process restarts).
fn scrub(s: &str) -> String {
    arraymem_ir::pretty::scrub_uniques(s)
}

impl ExecPlan {
    /// A deterministic, human-readable rendering of the plan: parameters,
    /// then the instruction stream (lambda bodies indented), with slots as
    /// `%N` and symbol names scrubbed of freshness suffixes. The NW golden
    /// snapshot test diffs this.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "plan {} ({} slots, {} instrs, {} fused releases)\n",
            self.name,
            self.num_slots,
            self.body.instrs.len(),
            self.num_releases
        ));
        if self.blocks_merged > 0 {
            s.push_str(&format!("merged blocks: {}\n", self.blocks_merged));
        }
        s.push_str("params:\n");
        for p in &self.params {
            let mem = match p.mem_slot {
                Some(m) => format!(" (mem %{m})"),
                None => String::new(),
            };
            s.push_str(&format!("  %{} {}: {:?}{}\n", p.slot, p.var, p.ty, mem));
        }
        s.push_str("body:\n");
        fmt_stream(&self.body, 1, &mut s);
        s.push_str("results:");
        for (slot, v) in &self.results {
            s.push_str(&format!(" %{slot} ({v})"));
        }
        s.push('\n');
        scrub(&s)
    }
}

fn fmt_stream(st: &Stream, indent: usize, s: &mut String) {
    let pad = "  ".repeat(indent);
    for (k, i) in st.instrs.iter().enumerate() {
        s.push_str(&format!("{pad}{k:>3}  {}\n", fmt_instr(i)));
        if let Instr::MapLambda(ml) = i {
            fmt_stream(&ml.body, indent + 1, s);
            s.push_str(&format!(
                "{pad}     ^ per-element body; results {}\n",
                ml.results
                    .iter()
                    .map(|r| format!("%{r}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
}

fn fmt_dest(d: &Dest) -> String {
    let mem = match &d.mem {
        Some(md) => {
            let block = match md.block {
                Some(b) => format!("%{b}"),
                None => format!("<unbound {}>", md.block_var),
            };
            match &md.ixfn {
                LoweredIxFn::Ready { ixfn, class } => {
                    format!(" @ {block} {ixfn:?} [{class:?}]")
                }
                LoweredIxFn::Dynamic(ixfn) => format!(" @ {block} {ixfn:?}"),
            }
        }
        None => String::new(),
    };
    format!("%{} ({}: {:?}){}", d.slot, d.var, d.elem, mem)
}

/// The results of `e` back in infix: every step's value as a string, in
/// step order. A `select` is whole at its join, where the condition its
/// jump-if-false left and the then-arm its jump left meet the else-arm.
fn fmt_exp(e: &LExp) -> String {
    fn arg(e: &LExp, vals: &[String], a: Arg) -> String {
        match a {
            Arg::Slot(s) => format!("%{s}"),
            Arg::Const(k) => format!("{:?}", e.consts[k as usize]),
            Arg::Val(k) => vals[k as usize].clone(),
        }
    }
    let (mut vals, mut conds) = (vec![String::new(); e.ops.len()], Vec::new());
    for (k, op) in e.ops.iter().enumerate() {
        vals[k] = match *op {
            Op::Size(s) => format!("size({:?})", e.sizes[s as usize]),
            Op::Bin(op, a, b) => format!("({} {op:?} {})", arg(e, &vals, a), arg(e, &vals, b)),
            Op::Un(op, a) => format!("{op:?}({})", arg(e, &vals, a)),
            Op::Index { arr, at, rank } => {
                let coords = &e.coords[at as usize..][..rank as usize];
                let idx: Vec<String> = coords.iter().map(|c| arg(e, &vals, *c)).collect();
                format!("%{arr}[{}]", idx.join(", "))
            }
            Op::JumpIfFalse(c, _) => {
                conds.push(arg(e, &vals, c));
                continue;
            }
            Op::Jump(t, join) => {
                vals[join as usize] = arg(e, &vals, t);
                continue;
            }
            Op::Move(f) => {
                let c = conds.pop().expect("a select's condition");
                format!("select({c}, {}, {})", vals[k], arg(e, &vals, f))
            }
        };
    }
    let results: Vec<String> = e.results.iter().map(|r| arg(e, &vals, *r)).collect();
    results.join(", ")
}

fn fmt_slots(slots: &[Slot]) -> String {
    slots
        .iter()
        .map(|s| format!("%{s}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn fmt_instr(i: &Instr) -> String {
    match i {
        Instr::Scalar { dst, exp, .. } => format!("%{dst} <- {}", fmt_exp(exp)),
        Instr::Alloc { dst, elem, size } => format!("%{dst} <- alloc {elem:?} x {size:?}"),
        Instr::Iota { dest } => format!("{} <- iota", fmt_dest(dest)),
        Instr::Scratch { dest } => format!("{} <- scratch", fmt_dest(dest)),
        Instr::Replicate { dest, value } => {
            format!("{} <- replicate {}", fmt_dest(dest), fmt_exp(value))
        }
        Instr::Copy { dest, src } => format!("{} <- copy %{src}", fmt_dest(dest)),
        Instr::Concat { dest, args } => format!(
            "{} <- concat [{}]",
            fmt_dest(dest),
            args.iter()
                .map(|a| format!("%{}{}", a.src, if a.elided { " (elided)" } else { "" }))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Instr::Transform { dest, src, tr, .. } => {
            format!("{} <- transform %{src} {tr:?}", fmt_dest(dest))
        }
        Instr::Gather { dest, src, idx } => {
            format!("{} <- gather %{src} [%{idx}]", fmt_dest(dest))
        }
        Instr::MapKernel(mk) => format!(
            "{} <- map_kernel {}#{} width {:?} inputs [{}] args [{}]{}{}",
            fmt_dest(&mk.dest),
            mk.kernel_name,
            mk.kernel
                .map(|k| k.to_string())
                .unwrap_or_else(|| "?".into()),
            mk.width,
            fmt_slots(&mk.inputs),
            mk.args.iter().map(fmt_exp).collect::<Vec<_>>().join(", "),
            if mk.in_place { " in-place" } else { "" },
            match mk.par {
                ParLevel::Safe => " par-safe",
                ParLevel::Serial => " par-serial",
                ParLevel::NeedsBuffer => " par-buffered",
            }
        ),
        Instr::MapLambda(ml) => format!(
            "[{}] <- map_lambda width {:?} inputs [{}] params [{}] {}",
            ml.dests.iter().map(fmt_dest).collect::<Vec<_>>().join(", "),
            ml.width,
            fmt_slots(&ml.inputs),
            fmt_slots(&ml.params),
            match &ml.strip {
                Ok(_) => "strip".to_string(),
                Err(why) => format!("elementwise({why:?})"),
            }
        ),
        Instr::Update(u) => {
            let slice = match &u.slice {
                LSlice::Tr(tr) => format!("{tr:?}"),
                LSlice::Point(at) => format!("point[{}]", fmt_exp(at)),
                LSlice::Scatter(idx) => format!("scatter[%{idx}]"),
            };
            let src = match &u.src {
                LUpdateSrc::Array(s) => format!("%{s}"),
                LUpdateSrc::Scalar(e) => fmt_exp(e),
            };
            format!(
                "{} <- update %{} {slice} src {src}{}",
                fmt_dest(&u.dest),
                u.dst,
                if u.elided { " (elided)" } else { "" }
            )
        }
        Instr::Release { slot, site } => format!(
            "release %{slot}{}",
            site.map(|v| format!(" (after {v})")).unwrap_or_default()
        ),
        Instr::ReleaseCarried {
            incoming,
            outgoing,
            guards,
            site,
        } => format!(
            "release-carried %{incoming} (unless %{outgoing}{}{})",
            if guards.is_empty() {
                String::new()
            } else {
                format!(" or {}", fmt_slots(guards))
            },
            site.map(|v| format!("; after {v}")).unwrap_or_default()
        ),
        Instr::CopySlots { pairs } => format!(
            "copy-slots [{}]",
            pairs
                .iter()
                .map(|(a, b)| format!("%{a}->%{b}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Instr::Jump { target } => format!("jump {target}"),
        Instr::JumpIfFalse { cond, target } => {
            format!("jump-if-false {} -> {target}", fmt_exp(cond))
        }
        Instr::JumpIfGe { a, b, target, .. } => format!("jump-if %{a} >= %{b} -> {target}"),
        Instr::VerifyChecks { checks } => format!(
            "verify-circuits [{}]",
            checks
                .iter()
                .map(|c| c.stm.clone())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}
