//! Array short-circuiting (paper §V).
//!
//! A *circuit point* is `let xss[W] = bs` (update) or
//! `let xss = concat ... bs ...` where `bs` is lastly used. The bottom-up
//! analysis tries to construct `bs` — and every array in an alias relation
//! with it — directly inside `xss`'s memory with the rebased index
//! function, eliding the copy.
//!
//! Per candidate the pass maintains two summaries (§V-B):
//!
//! - `uses_dst` (`U_xss`): all uses of the destination memory between the
//!   circuit point (exclusive) and the current statement, walking upward;
//! - `writes_bs` (`W_bs`): memory written via the rebased alias web.
//!
//! Every write through the web must be provably disjoint from `uses_dst`
//! (the static non-overlap test of §V-C). The analysis finishes when it
//! reaches the web's *fresh* definition; the four safety properties of §V
//! are checked along the way:
//!
//! 1. `bs` lastly used at the circuit point (last-use analysis);
//! 2. `xss`'s memory allocated before the fresh definition (enabled by
//!    allocation hoisting);
//! 3. valid rebased index functions for the whole alias web, translated
//!    into scope (symbol-table fixpoint substitution);
//! 4. no write through the web overlaps a use of `xss`'s memory.
//!
//! Mapnests construct their per-iteration rows directly in the result
//! memory when safe (§V-A(e)); this is decided by a post-pass over the
//! final bindings and surfaces as `MapExp::in_place_result`.

use crate::memtable::MemTable;
use crate::remark::RejectReason;
use arraymem_ir::alias::{aliases, AliasMap};
use arraymem_ir::lastuse::used_after;
use arraymem_ir::{
    loop_env, param_block_sym, Block, Exp, MapBody, MapExp, MemBinding, Program, ScalarExp,
    SliceSpec, Stm, Type, UpdateSrc, Var,
};
use arraymem_lmad::aggregate::Summary;
use arraymem_lmad::overlap::non_overlap;
use arraymem_lmad::{IndexFn, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{Env, Poly, Sym};
use std::collections::{HashMap, HashSet};

/// What kind of circuit point a candidate came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CandidateKind {
    Update,
    Concat,
}

/// A structured rejection: the machine-readable identity of the legality
/// check that failed, plus the human-readable detail. Every path that
/// conservatively rejects a candidate constructs one of these — there is
/// no way to fail a candidate without naming the check.
#[derive(Clone, Debug)]
pub struct Rejection {
    pub kind: RejectReason,
    pub message: String,
}

impl Rejection {
    fn new(kind: RejectReason, message: impl Into<String>) -> Rejection {
        Rejection {
            kind,
            message: message.into(),
        }
    }
}

/// The outcome of one short-circuiting candidate, for reporting.
#[derive(Clone, Debug)]
pub struct CandidateOutcome {
    /// Printable name of the array the candidate tried to short-circuit.
    pub root: String,
    pub kind: CandidateKind,
    pub succeeded: bool,
    /// The variable bound by the circuit-point statement, anchoring the
    /// outcome (and its remark) to a statement of the program.
    pub stm: Var,
    /// "ok" or the reason the analysis failed (conservatively).
    pub reason: String,
    /// For rejected candidates: which legality check failed.
    pub rejection: Option<RejectReason>,
    /// For successful candidates whose summaries stayed finite: the
    /// symbolic footprints behind the non-overlap verdict, for the checked
    /// VM to re-verify against concrete sizes at runtime.
    pub check: Option<CircuitCheck>,
}

/// The evidence behind one successful short-circuit: the write footprint
/// of the rebased web (`W_bs`) and the recorded later uses of the
/// destination memory (`U_xss`), both symbolic. The checked VM evaluates
/// every pair under the run's concrete sizes and asserts disjointness —
/// a dynamic cross-check of the static test of §V-C.
#[derive(Clone, Debug)]
pub struct CircuitCheck {
    /// Root array of the short-circuited web.
    pub root: String,
    /// Name bound by the circuit-point statement.
    pub stm: String,
    /// Destination memory block variable.
    pub dst_block: Var,
    /// `W_bs`: everything the rebased web writes.
    pub writes: Vec<Lmad>,
    /// `U_xss`: uses of the destination memory after the fresh definition.
    pub uses: Vec<Lmad>,
}

/// Aggregate report of a short-circuiting run. The merge pass appends its
/// own records here, so one report carries every runtime obligation the
/// optimizer took on ([`Report::checks`] and [`Report::merges`]).
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub candidates: Vec<CandidateOutcome>,
    /// Blocks the merge pass folded together, and the carried releases it
    /// scheduled ([`crate::merge::merge_blocks`]).
    pub merges: Vec<crate::merge::MergeRecord>,
    /// Number of kernel maps whose rows are constructed in place.
    pub in_place_maps: usize,
    /// The result variables of those maps, anchoring the remarks.
    pub in_place_stms: Vec<Var>,
    /// Per-mapnest parallel-safety verdicts recorded by the `par_safety`
    /// stage ([`crate::par_safety`]) — like [`Report::merges`], these are
    /// runtime obligations lowering threads into the execution plan.
    pub par_safety: Vec<crate::par_safety::ParSafetyRecord>,
}

impl Report {
    pub fn successes(&self) -> usize {
        self.candidates.iter().filter(|c| c.succeeded).count()
    }

    /// Runtime cross-checks recorded by successful candidates.
    pub fn checks(&self) -> impl Iterator<Item = &CircuitCheck> {
        self.candidates.iter().filter_map(|c| c.check.as_ref())
    }
}

/// Where to apply an elision once a candidate succeeds.
#[derive(Clone, Copy, Debug)]
enum CircuitAction {
    /// Mark `Update` at this statement path as elided.
    ElideUpdate,
    /// Mark concat argument `k` as elided.
    ElideConcatArg(usize),
}

struct Candidate {
    kind: CandidateKind,
    root: Var,
    /// The destination memory block (`xss_mem`).
    dst_block: Var,
    /// The rebased alias web: var → new binding.
    rebased: HashMap<Var, MemBinding>,
    uses_dst: Summary,
    writes_bs: Summary,
    /// Statement index (in the analyzed block) of the circuit point.
    circuit_at: usize,
    action: CircuitAction,
    failed: Option<Rejection>,
    finished: bool,
    /// Statement index of the fresh definition, once found.
    finished_at: Option<usize>,
    /// Set when the force-unsafe hook skipped a failing write check.
    forced: bool,
}

impl Candidate {
    /// A live candidate: `web` seeds the rebased alias web (the root's
    /// binding inside `dst_block`).
    fn new(
        kind: CandidateKind,
        root: Var,
        dst_block: Var,
        web: HashMap<Var, MemBinding>,
        circuit_at: usize,
        action: CircuitAction,
    ) -> Candidate {
        Candidate {
            kind,
            root,
            dst_block,
            rebased: web,
            uses_dst: Summary::empty(),
            writes_bs: Summary::empty(),
            circuit_at,
            action,
            failed: None,
            finished: false,
            finished_at: None,
            forced: false,
        }
    }

    /// A candidate rejected where it was found: recorded, so the remarks
    /// prove the pass saw it, and inert. Its `dst_block` is never read —
    /// the root stands in.
    fn rejected(
        kind: CandidateKind,
        root: Var,
        circuit_at: usize,
        action: CircuitAction,
        why: RejectReason,
        message: &str,
    ) -> Candidate {
        let mut c = Candidate::new(kind, root, root, HashMap::new(), circuit_at, action);
        c.fail(why, message);
        c
    }

    fn fail(&mut self, kind: RejectReason, reason: impl Into<String>) {
        self.fail_with(Rejection::new(kind, reason));
    }

    fn fail_with(&mut self, rejection: Rejection) {
        if self.failed.is_none() {
            self.failed = Some(rejection);
        }
    }

    fn active(&self) -> bool {
        self.failed.is_none() && !self.finished
    }
}

/// Shared pass context.
struct Ctx {
    am: AliasMap,
    /// Global (pre-pass) bindings of every array var.
    bindings: MemTable,
    /// Optimistic overlay: rebasings from candidates that have *finished*
    /// successfully during this run.
    overlay: HashMap<Var, MemBinding>,
    /// Elisions to apply: (block-id, stm idx, action).
    report: Report,
    /// Test-only mutation hook: approve candidates past a failing write
    /// check, producing deliberately illegal elisions for the checked VM's
    /// sanitizer to catch.
    force_unsafe: bool,
}

impl Ctx {
    fn binding(&self, v: Var) -> Option<MemBinding> {
        self.overlay
            .get(&v)
            .or_else(|| self.bindings.get(v))
            .cloned()
    }
}

/// Run the short-circuiting pass over a memory-annotated program, with
/// the mapnest in-place post-pass switchable (for ablations).
pub fn short_circuit_with(prog: &mut Program, env: &Env, mapnest_in_place: bool) -> Report {
    drive(prog, env, mapnest_in_place, false)
}

/// The pass proper. `force_unsafe` is the `Sabotage::ShortCircuit`
/// mutation hook: a write check that fails the non-overlap test does
/// *not* fail the candidate, so the resulting program contains a
/// deliberately illegal elision for the checked VM's sanitizer to catch.
pub(crate) fn drive(
    prog: &mut Program,
    env: &Env,
    mapnest_in_place: bool,
    force_unsafe: bool,
) -> Report {
    let mut ctx = Ctx {
        am: aliases(prog),
        bindings: MemTable::build(prog),
        overlay: HashMap::new(),
        report: Report::default(),
        force_unsafe,
    };
    // Arrays escaping as program results can still be destinations; nothing
    // special is needed in live_after beyond the result classes (handled by
    // used_after).
    let live_after: HashSet<Var> = HashSet::new();
    // Memory allocated "outside" the body: parameter blocks.
    let outer_allocs: HashSet<Var> = prog
        .params
        .iter()
        .filter(|(_, ty)| ty.is_array())
        .map(|(v, _)| param_block_sym(*v))
        .collect();
    run_block(&mut prog.body, &live_after, env, &outer_allocs, &mut ctx);
    // Post-pass: decide which kernel maps build their rows in place.
    if mapnest_in_place {
        mark_in_place_maps(prog, env, &mut ctx.report);
    }
    ctx.report
}

/// Analyze nested blocks first (post-order), then this block's own
/// statements.
fn run_block(
    block: &mut Block,
    live_after: &HashSet<Var>,
    env: &Env,
    outer_allocs: &HashSet<Var>,
    ctx: &mut Ctx,
) {
    for k in 0..block.stms.len() {
        if block.stms[k].exp.blocks().next().is_none() {
            continue;
        }
        // Liveness for the nested block: classes used after stm k, plus the
        // enclosing live set.
        let mut nested_live = live_after.clone();
        for s in &block.stms[k + 1..] {
            for v in s.exp.free_vars() {
                nested_live.insert(ctx.am.root(v));
            }
        }
        for v in &block.result {
            nested_live.insert(ctx.am.root(*v));
        }
        // Allocations visible inside the nested block: everything allocated
        // in this block before k, plus outer.
        let mut allocs = outer_allocs.clone();
        for s in &block.stms[..k] {
            if matches!(s.exp, Exp::Alloc { .. }) {
                allocs.insert(s.pat[0].var);
            }
        }
        let inner_env = if let Exp::Loop {
            params,
            index,
            count,
            ..
        } = &block.stms[k].exp
        {
            // Merge-parameter classes stay live across iterations, and
            // memory merge parameters are backed by allocations made
            // before the loop.
            for pe in params {
                nested_live.insert(ctx.am.root(pe.var));
                if pe.ty == Type::Mem {
                    allocs.insert(pe.var);
                }
            }
            loop_env(env, *index, count)
        } else {
            env.clone()
        };
        for b in block.stms[k].exp.blocks_mut() {
            run_block(b, &nested_live, &inner_env, &allocs, ctx);
        }
    }
    analyze_stms(block, live_after, env, outer_allocs, ctx);
}

/// Convert a slice spec into a layout transform (for computing access
/// regions and rebased index functions).
fn slice_transform(slice: &SliceSpec) -> Option<Transform> {
    match slice {
        SliceSpec::Triplet(ts) => Some(Transform::Slice(ts.clone())),
        SliceSpec::Lmad(l) => Some(Transform::LmadSlice(l.clone())),
        SliceSpec::Point(es) => {
            let ts = es
                .iter()
                .map(|e| scalar_to_poly(e).map(TripletSlice::Fix))
                .collect::<Option<Vec<_>>>()?;
            Some(Transform::Slice(ts))
        }
        // A scatter's written positions are runtime data: no static
        // transform describes them (see `arraymem_lmad::OpaqueIxFn`).
        SliceSpec::Scatter(_) => None,
    }
}

/// Conservative conversion of a scalar expression into a polynomial.
fn scalar_to_poly(e: &ScalarExp) -> Option<Poly> {
    use arraymem_ir::BinOp;
    match e {
        ScalarExp::Const(arraymem_ir::Constant::I64(c)) => Some(Poly::constant(*c)),
        ScalarExp::Var(v) => Some(Poly::var(*v)),
        ScalarExp::Size(p) => Some(p.clone()),
        ScalarExp::Bin(op, a, b) => {
            let (a, b) = (scalar_to_poly(a)?, scalar_to_poly(b)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The abstract set of memory locations addressed by an index function
/// (footnote 26: multi-LMAD compositions are over-approximated to Top).
pub(crate) fn ixfn_set(ixfn: &IndexFn) -> Summary {
    match ixfn.as_single() {
        Some(l) => {
            let mut s = Summary::empty();
            s.add(l.clone());
            s
        }
        None => Summary::top(),
    }
}

/// The memory region written when `slice` of an array with index function
/// `ixfn` is updated.
fn slice_region(ixfn: &IndexFn, slice: &SliceSpec) -> Summary {
    match slice_transform(slice).and_then(|tr| ixfn.transform(&tr)) {
        Some(f) => ixfn_set(&f),
        None => Summary::top(),
    }
}

/// Where one block's own statements bind what: every definition, the
/// `alloc`s (property 2) and the scalars expressible as polynomials (for
/// translating index functions into scope, §V-A(b)).
struct BlockIndex {
    alloc_pos: HashMap<Var, usize>,
    def_pos: HashMap<Var, usize>,
    scalar_defs: HashMap<Var, Poly>,
}

impl BlockIndex {
    fn of(block: &Block) -> BlockIndex {
        let mut ix = BlockIndex {
            alloc_pos: HashMap::new(),
            def_pos: HashMap::new(),
            scalar_defs: HashMap::new(),
        };
        for (k, stm) in block.stms.iter().enumerate() {
            for pe in &stm.pat {
                ix.def_pos.insert(pe.var, k);
            }
            match &stm.exp {
                Exp::Alloc { .. } => {
                    ix.alloc_pos.insert(stm.pat[0].var, k);
                }
                Exp::Scalar(se) => {
                    if let Some(p) = scalar_to_poly(se) {
                        ix.scalar_defs.insert(stm.pat[0].var, p);
                    }
                }
                _ => {}
            }
        }
        ix
    }

    /// The allocations in scope just before statement `k`.
    fn allocs_before(&self, k: usize, outer_allocs: &HashSet<Var>) -> HashSet<Var> {
        let local = self.alloc_pos.iter().filter(|(_, &at)| at < k);
        outer_allocs
            .iter()
            .chain(local.map(|(v, _)| v))
            .copied()
            .collect()
    }
}

/// Main backward walk over one block's statements.
fn analyze_stms(
    block: &mut Block,
    live_after: &HashSet<Var>,
    env: &Env,
    outer_allocs: &HashSet<Var>,
    ctx: &mut Ctx,
) {
    let index = BlockIndex::of(block);
    let mut cands: Vec<Candidate> = Vec::new();
    for k in (0..block.stms.len()).rev() {
        // 1. Process this statement against every active candidate.
        for ci in 0..cands.len() {
            if !cands[ci].active() || k >= cands[ci].circuit_at {
                continue;
            }
            process_stm(&mut cands[ci], block, k, env, outer_allocs, &index, ctx);
            // Publish a successful finish immediately so transitive
            // chaining (Fig. 6a) sees the rebased destination.
            if cands[ci].finished && cands[ci].failed.is_none() {
                // This rebase vacates the blocks its web vars lived in.
                // Any other candidate whose *destination* is one of those
                // blocks baked index functions (and footprint summaries)
                // for cells that no longer back the destination arrays:
                // its elision would write into dead memory. Failing it
                // merely keeps the copy, which is always sound.
                let vacated: HashSet<Var> = cands[ci]
                    .rebased
                    .iter()
                    .filter_map(|(v, mb)| {
                        ctx.binding(*v)
                            .and_then(|old| (old.block != mb.block).then_some(old.block))
                    })
                    .collect();
                for (cj, other) in cands.iter_mut().enumerate() {
                    if cj == ci || other.failed.is_some() {
                        continue;
                    }
                    if vacated.contains(&other.dst_block) {
                        for v in other.rebased.keys() {
                            ctx.overlay.remove(v);
                        }
                        other.fail(
                            RejectReason::DestinationVacated,
                            "destination memory was itself short-circuited away",
                        );
                    }
                }
                for (v, mb) in &cands[ci].rebased {
                    ctx.overlay.insert(*v, mb.clone());
                }
            }
        }
        // 2. Maybe create new candidates at this statement.
        create_candidates(block, k, live_after, &mut cands, ctx);
    }

    // Apply successful candidates.
    for cand in cands {
        let succeeded = cand.finished && cand.failed.is_none();
        let (reason, rejection) = if !succeeded {
            match &cand.failed {
                Some(r) => (r.message.clone(), Some(r.kind)),
                None => (
                    "fresh definition not found in scope".to_string(),
                    Some(RejectReason::FreshDefNotFound),
                ),
            }
        } else if cand.forced {
            ("ok (forced past a failing write check)".to_string(), None)
        } else {
            ("ok".to_string(), None)
        };
        // Record the concrete evidence for the checked VM: both summaries
        // must have stayed finite sets for the footprints to be checkable.
        let check = if succeeded {
            match (cand.writes_bs.lmads(), cand.uses_dst.lmads()) {
                (Some(w), Some(u)) => Some(CircuitCheck {
                    root: format!("{}", cand.root),
                    stm: format!("{}", block.stms[cand.circuit_at].pat[0].var),
                    dst_block: cand.dst_block,
                    writes: w.to_vec(),
                    uses: u.to_vec(),
                }),
                _ => None,
            }
        } else {
            None
        };
        ctx.report.candidates.push(CandidateOutcome {
            root: format!("{}", cand.root),
            kind: cand.kind,
            succeeded,
            stm: block.stms[cand.circuit_at].pat[0].var,
            reason,
            rejection,
            check,
        });
        if !succeeded {
            continue;
        }
        // Rebase the web's definitions.
        block.for_each_stm_mut(&mut |stm| {
            for pe in stm.bound_mut() {
                if let Some(mb) = cand.rebased.get(&pe.var) {
                    pe.mem = Some(mb.clone());
                }
            }
        });
        for (v, mb) in &cand.rebased {
            ctx.overlay.insert(*v, mb.clone());
        }
        // Elide the circuit point.
        match cand.action {
            CircuitAction::ElideUpdate => {
                if let Exp::Update { elided, .. } = &mut block.stms[cand.circuit_at].exp {
                    *elided = true;
                }
            }
            CircuitAction::ElideConcatArg(a) => {
                if let Exp::Concat { elided, .. } = &mut block.stms[cand.circuit_at].exp {
                    elided[a] = true;
                }
            }
        }
    }
}

/// Create candidates for the circuit points in statement `k`.
fn create_candidates(
    block: &Block,
    k: usize,
    live_after: &HashSet<Var>,
    cands: &mut Vec<Candidate>,
    ctx: &Ctx,
) {
    let stm = &block.stms[k];
    match &stm.exp {
        Exp::Update {
            dst,
            slice,
            src: UpdateSrc::Array(src),
            elided: false,
        } => {
            let mut reject = |why: RejectReason, message: &str| {
                let (kind, action) = (CandidateKind::Update, CircuitAction::ElideUpdate);
                cands.push(Candidate::rejected(kind, *src, k, action, why, message));
            };
            if let SliceSpec::Scatter(_) = slice {
                // Runtime-indexed write: the written positions are data, so
                // no affine rebased index function exists for the source.
                // Recorded as a rejection (not skipped silently) so remarks
                // prove the pass saw — and gave up on — the scatter.
                reject(
                    RejectReason::RuntimeIndexedWrite,
                    "scatter writes through runtime indices: the copy is \
                     kept and bounds are enforced dynamically",
                );
                return;
            }
            if ctx.am.same_class(*src, *dst) {
                return; // not a circuit point: src aliases dst
            }
            if used_after(block, k, *src, live_after, &ctx.am) {
                reject(
                    RejectReason::NotLastUse,
                    "source used after the circuit point",
                );
                return;
            }
            let Some(dst_mb) = ctx.binding(*dst) else {
                return;
            };
            let Some(tr) = slice_transform(slice) else {
                reject(
                    RejectReason::SliceNotExpressible,
                    "slice not expressible as a transform",
                );
                return;
            };
            let Some(ixfn) = dst_mb.ixfn.transform(&tr) else {
                reject(
                    RejectReason::SliceNotExpressible,
                    "could not slice the destination index function",
                );
                return;
            };
            let web = MemBinding {
                block: dst_mb.block,
                ixfn,
            };
            cands.push(Candidate::new(
                CandidateKind::Update,
                *src,
                dst_mb.block,
                HashMap::from([(*src, web)]),
                k,
                CircuitAction::ElideUpdate,
            ));
        }
        Exp::Concat { args, elided } => {
            let res = stm.pat[0].var;
            let Some(res_mb) = ctx.binding(res) else {
                return;
            };
            let res_shape = stm.pat[0].ty.shape().to_vec();
            let mut offset = Poly::zero();
            for (a_idx, &a) in args.iter().enumerate() {
                let a_ty = slice_arg_shape(block, a, ctx);
                let Some(a_shape) = a_ty else {
                    // Without this argument's extent the row offsets of all
                    // later arguments are unknown: abort the remaining
                    // candidates rather than rebase them at wrong offsets.
                    break;
                };
                let len = a_shape[0].clone();
                let this_offset = offset.clone();
                offset = offset + len.clone();
                if elided[a_idx] {
                    continue;
                }
                let (kind, action) = (CandidateKind::Concat, CircuitAction::ElideConcatArg(a_idx));
                let mut reject = |why: RejectReason, message: &str| {
                    cands.push(Candidate::rejected(kind, a, k, action, why, message));
                };
                // The two "not lastly used" shapes are recorded as rejected
                // candidates rather than skipped silently — aliasing args
                // (`concat bs bs`, or two args from one web) were a
                // historical fuzzer bug class: eliding both would rebase
                // the same memory onto two destinations (footnote 17).
                if ctx.am.same_class(a, res) {
                    reject(
                        RejectReason::AliasingConcatArg,
                        "concat argument aliases the concat result",
                    );
                    continue;
                }
                if args
                    .iter()
                    .enumerate()
                    .any(|(j, &b)| j != a_idx && ctx.am.same_class(a, b))
                {
                    reject(
                        RejectReason::AliasingConcatArg,
                        "concat argument aliases another argument — eliding \
                         both would rebase one alias web onto two \
                         destinations (footnote 17)",
                    );
                    continue;
                }
                if used_after(block, k, a, live_after, &ctx.am) {
                    reject(
                        RejectReason::NotLastUse,
                        "concat argument used after the circuit point",
                    );
                    continue;
                }
                // Rebased index function: rows [offset, offset+len) of res.
                let mut ts = vec![TripletSlice::range(this_offset, len, Poly::constant(1))];
                for d in &res_shape[1..] {
                    ts.push(TripletSlice::full(d.clone()));
                }
                let Some(ixfn) = res_mb.ixfn.transform(&Transform::Slice(ts)) else {
                    reject(
                        RejectReason::SliceNotExpressible,
                        "could not slice the result index function at the \
                         argument's rows",
                    );
                    continue;
                };
                let web = MemBinding {
                    block: res_mb.block,
                    ixfn,
                };
                cands.push(Candidate::new(
                    kind,
                    a,
                    res_mb.block,
                    HashMap::from([(a, web)]),
                    k,
                    action,
                ));
            }
        }
        _ => {}
    }
}

/// Shape of a concat argument (from its binding type where available).
fn slice_arg_shape(block: &Block, v: Var, ctx: &Ctx) -> Option<Vec<Poly>> {
    for stm in &block.stms {
        for pe in &stm.pat {
            if pe.var == v {
                return Some(pe.ty.shape().to_vec());
            }
        }
    }
    // Fall back to the binding's logical shape.
    ctx.binding(v).map(|mb| mb.ixfn.shape())
}

/// Process statement `k` for an active candidate (the heart of the
/// backward analysis).
fn process_stm(
    cand: &mut Candidate,
    block: &Block,
    k: usize,
    env: &Env,
    outer_allocs: &HashSet<Var>,
    index: &BlockIndex,
    ctx: &Ctx,
) {
    let stm = &block.stms[k];
    let web_def = stm.pat.iter().find(|pe| cand.rebased.contains_key(&pe.var));
    if let Some(def) = web_def {
        process_web_def(cand, block, k, def.var, env, outer_allocs, index, ctx);
        return;
    }
    // A transform *of* a web member defines a forward alias whose index
    // function must be rebased too ("all variables that are in an alias
    // relation to bs, for example as and cs", §V): cs = chg-layout(bs)
    // gets chg-layout ∘ ixfn_new(bs).
    if let Exp::Transform { src, tr } = &stm.exp {
        if let Some(src_mb) = cand.rebased.get(src) {
            match src_mb.ixfn.transform(tr) {
                Some(ixfn) => {
                    cand.rebased.insert(
                        stm.pat[0].var,
                        MemBinding {
                            block: cand.dst_block,
                            ixfn,
                        },
                    );
                }
                None => cand.fail(
                    RejectReason::NonInvertibleTransform,
                    "untransformable forward alias of the web",
                ),
            }
            return;
        }
    }
    // A statement outside the web: record its uses of the destination
    // memory. Reads of web members are *not* destination uses — the web's
    // memory holds exactly the member's semantic values at that point (the
    // uniqueness discipline orders writes).
    let skip: HashSet<Var> = cand.rebased.keys().copied().collect();
    let uses = stm_dst_uses(stm, cand.dst_block, &skip, env, ctx);
    cand.uses_dst.union(&uses);
}

/// Check a region the web is about to write against the collected uses of
/// the destination memory. With `force` (the test-only mutation hook) a
/// failing check is recorded as `forced` instead of failing the candidate.
fn check_write(cand: &mut Candidate, region: &Summary, env: &Env, what: &str, force: bool) {
    if !region.disjoint_from(&cand.uses_dst, env) {
        if force {
            cand.forced = true;
        } else {
            cand.fail(
                RejectReason::OverlapTestFailed,
                format!("write via {what} may overlap later uses of the destination memory"),
            );
        }
    }
    cand.writes_bs.union(region);
}

/// Translate an index function to be valid at definition position `at`:
/// substitute (to a fixpoint) variables defined at or after `at` with their
/// scalar definitions; fail if any remain (§V-A(b)).
fn translate_ixfn(ixfn: &IndexFn, at: usize, index: &BlockIndex) -> Result<IndexFn, Rejection> {
    let mut cur = ixfn.clone();
    for _ in 0..8 {
        let later: Vec<Var> = cur
            .vars()
            .into_iter()
            .filter(|v| index.def_pos.get(v).is_some_and(|&d| d >= at))
            .collect();
        if later.is_empty() {
            return Ok(cur);
        }
        let mut progressed = false;
        for v in later {
            if let Some(p) = index.scalar_defs.get(&v) {
                cur = cur.subst(v, p);
                progressed = true;
            } else {
                return Err(Rejection::new(
                    RejectReason::IxfnNotInScope,
                    format!("index function uses {v}, which is not in scope at the definition"),
                ));
            }
        }
        if !progressed {
            break;
        }
    }
    Err(Rejection::new(
        RejectReason::IxfnNotInScope,
        "index-function translation did not converge",
    ))
}

#[allow(clippy::too_many_arguments)]
fn process_web_def(
    cand: &mut Candidate,
    block: &Block,
    k: usize,
    def: Var,
    env: &Env,
    outer_allocs: &HashSet<Var>,
    index: &BlockIndex,
    ctx: &Ctx,
) {
    let stm = &block.stms[k];
    let binding = cand.rebased[&def].clone();
    // Property 3b: the binding must be expressible at this definition.
    let translated = match translate_ixfn(&binding.ixfn, k, index) {
        Ok(ix) => MemBinding {
            block: binding.block,
            ixfn: ix,
        },
        Err(e) => {
            cand.fail_with(e);
            return;
        }
    };
    cand.rebased.insert(def, translated.clone());

    let finalize = |cand: &mut Candidate| {
        // Property 2: destination memory allocated before this point.
        let ok = outer_allocs.contains(&cand.dst_block)
            || index.alloc_pos.get(&cand.dst_block).is_some_and(|&a| a < k);
        if !ok {
            cand.fail(
                RejectReason::DestinationNotAllocated,
                "destination memory not allocated at the fresh definition",
            );
            return;
        }
        cand.finished = true;
        cand.finished_at = Some(k);
    };

    match &stm.exp {
        Exp::Transform { src, tr } => {
            // bs = chg-layout(as): rebase as with the inverse transform
            // (§V-A(a)); only invertible transforms are supported.
            let src_shape = ctx
                .binding(*src)
                .map(|mb| mb.ixfn.shape())
                .unwrap_or_default();
            match translated.ixfn.untransform(tr, &src_shape) {
                Some(src_ixfn) => {
                    cand.rebased.insert(
                        *src,
                        MemBinding {
                            block: cand.dst_block,
                            ixfn: src_ixfn,
                        },
                    );
                }
                None => cand.fail(
                    RejectReason::NonInvertibleTransform,
                    "non-invertible change-of-layout transformation",
                ),
            }
        }
        Exp::Update {
            dst, slice, src, ..
        } => {
            if let SliceSpec::Scatter(_) = slice {
                // The web flows through a scatter: its write footprint is
                // runtime data, so there is no region to run the
                // non-overlap test against (see `arraymem_lmad::OpaqueIxFn`).
                cand.fail(
                    RejectReason::RuntimeIndexedWrite,
                    "web flows through a scatter whose write footprint is \
                     runtime data",
                );
                return;
            }
            // The web flows through the update: dst joins the web.
            cand.rebased.insert(*dst, translated.clone());
            let region = slice_region(&translated.ixfn, slice);
            check_write(cand, &region, env, "an in-place update", ctx.force_unsafe);
            if let UpdateSrc::Array(s) = src {
                if let Some(smb) = ctx.binding(*s) {
                    if smb.block == cand.dst_block && !cand.rebased.contains_key(s) {
                        // Copying from the destination memory into the web:
                        // the read must not overlap what the web writes
                        // later... conservatively require disjointness from
                        // the write region now.
                        let reads = ixfn_set(&smb.ixfn);
                        if !reads.disjoint_from(&region, env) {
                            cand.fail(
                                RejectReason::OverlapTestFailed,
                                "update source reads the written region",
                            );
                        }
                        cand.uses_dst.union(&reads);
                    }
                }
            }
        }
        Exp::Scratch { .. } => {
            // Uninitialized fresh array: nothing written yet.
            finalize(cand);
        }
        Exp::Iota(_) | Exp::Replicate { .. } => {
            let region = ixfn_set(&translated.ixfn);
            check_write(cand, &region, env, "a fresh-array fill", ctx.force_unsafe);
            finalize(cand);
        }
        Exp::Copy(src) => {
            let region = ixfn_set(&translated.ixfn);
            check_write(cand, &region, env, "a fresh copy", ctx.force_unsafe);
            if cand.rebased.contains_key(src) {
                cand.fail(
                    RejectReason::OverlapTestFailed,
                    "copy source is itself the rebased region",
                );
                return;
            }
            if let Some(smb) = ctx.binding(*src) {
                if smb.block == cand.dst_block {
                    let reads = ixfn_set(&smb.ixfn);
                    if !reads.disjoint_from(&region, env) {
                        cand.fail(
                            RejectReason::OverlapTestFailed,
                            "copy source overlaps the rebased destination region",
                        );
                    }
                }
            }
            finalize(cand);
        }
        Exp::Gather { src, idx } => {
            // A gather's *result* is written densely (affine), so eliding
            // the copy is sound like any fresh fill — but its reads of
            // `src` land at runtime positions, covered conservatively by
            // the whole of `src`'s index function (the `OpaqueIxFn` cover).
            let region = ixfn_set(&translated.ixfn);
            check_write(cand, &region, env, "a gather result", ctx.force_unsafe);
            for v in [src, idx] {
                if cand.rebased.contains_key(v) {
                    cand.fail(
                        RejectReason::OverlapTestFailed,
                        "gather operand is itself the rebased region",
                    );
                    return;
                }
                if let Some(mb) = ctx.binding(*v) {
                    if mb.block == cand.dst_block {
                        let reads = ixfn_set(&mb.ixfn);
                        if !reads.disjoint_from(&region, env) {
                            cand.fail(
                                RejectReason::OverlapTestFailed,
                                "gather operand may overlap the rebased \
                                 destination region",
                            );
                        }
                    }
                }
            }
            finalize(cand);
        }
        Exp::Concat { args, .. } => {
            let region = ixfn_set(&translated.ixfn);
            check_write(cand, &region, env, "a concatenation", ctx.force_unsafe);
            for a in args {
                if let Some(amb) = ctx.binding(*a) {
                    if amb.block == cand.dst_block && !cand.rebased.contains_key(a) {
                        let reads = ixfn_set(&amb.ixfn);
                        if !reads.disjoint_from(&region, env) {
                            cand.fail(
                                RejectReason::OverlapTestFailed,
                                "concat argument overlaps the rebased region",
                            );
                        }
                    }
                }
            }
            finalize(cand);
        }
        Exp::Map(m) => {
            // The fresh definition is a parallel mapnest: its iterations
            // execute out of order. Reads of the destination memory must
            // be disjoint from the write region — entirely for inputs read
            // arbitrarily, and for every *other* iteration's row for
            // inputs read row-wise (§V-B: U(j≠i) ∩ W(i) = ∅).
            let region = ixfn_set(&translated.ixfn);
            check_write(cand, &region, env, "a mapnest result", ctx.force_unsafe);
            let whole: &[usize] = match &m.body {
                MapBody::Kernel { whole_inputs, .. } => whole_inputs,
                MapBody::Lambda { .. } => &[],
            };
            for (ii, inp) in m.inputs.iter().enumerate() {
                let imb = match cand.rebased.get(inp) {
                    Some(mb) => mb.clone(),
                    None => match ctx.binding(*inp) {
                        Some(mb) => mb,
                        None => continue,
                    },
                };
                if imb.block != cand.dst_block {
                    continue;
                }
                let reads = ixfn_set(&imb.ixfn);
                // Whole-set disjointness suffices (the NW case: Fig. 9).
                if reads.disjoint_from(&region, env) {
                    continue;
                }
                let row_wise = !whole.contains(&ii) && imb.ixfn.rank() >= 1;
                if row_wise && rowwise_map_disjoint(&translated.ixfn, &imb.ixfn, &m.width, env) {
                    continue;
                }
                cand.fail(
                    RejectReason::OverlapTestFailed,
                    format!("mapnest input {inp} overlaps the rebased write region"),
                );
            }
            finalize(cand);
        }
        Exp::If { then_b, else_b, .. } => {
            // Fig. 5a: short-circuit each branch's result independently.
            let pos = stm
                .pat
                .iter()
                .position(|pe| pe.var == def)
                .expect("web def in pattern");
            let visible_allocs = index.allocs_before(k, outer_allocs);
            let mut ok = true;
            for branch in [then_b, else_b] {
                match analyze_nested_candidate(
                    branch,
                    branch.result[pos],
                    None,
                    &translated,
                    cand.dst_block,
                    env,
                    &visible_allocs,
                    ctx,
                ) {
                    Ok((reb, uses, writes, _)) => {
                        cand.rebased.extend(reb);
                        cand.uses_dst.union(&uses);
                        cand.writes_bs.union(&writes);
                    }
                    Err(e) => {
                        cand.fail(e.kind, format!("if-branch analysis failed: {}", e.message));
                        ok = false;
                        break;
                    }
                }
            }
            if ok && cand.failed.is_none() {
                finalize(cand);
            }
        }
        Exp::Loop {
            params,
            inits,
            index: loop_index,
            count,
            body,
        } => {
            // Fig. 5b: (1) the merge size is invariant by construction;
            // (2) short-circuit the body result within the body;
            // (3) ordering emerges from treating the merge parameter as a
            //     destination-resident array whose reads are uses;
            // (4) rebase the initializer and keep walking upward.
            let pos = stm
                .pat
                .iter()
                .position(|pe| pe.var == def)
                .expect("web def in pattern");
            match analyze_loop_body(
                body,
                body.result[pos],
                params[pos].var,
                &translated,
                cand.dst_block,
                &loop_env(env, *loop_index, count),
                &index.allocs_before(k, outer_allocs),
                ctx,
            ) {
                Ok((reb, uses_i, writes_i)) => {
                    cand.rebased.extend(reb);
                    // Cross-iteration safety: the writes of iteration i must
                    // not overlap the uses of any *later* iteration j > i
                    // (the loop is sequential; fig. 7b).
                    if !cross_iteration_disjoint(&writes_i, &uses_i, *loop_index, count, env) {
                        cand.fail(
                            RejectReason::OverlapTestFailed,
                            "loop writes may overlap later iterations' uses",
                        );
                        return;
                    }
                    // Aggregate the body summaries over the whole loop.
                    let uses_all = uses_i.aggregate(*loop_index, count, env);
                    let writes_all = writes_i.aggregate(*loop_index, count, env);
                    if !writes_all.disjoint_from(&cand.uses_dst, env) {
                        cand.fail(
                            RejectReason::OverlapTestFailed,
                            "loop writes may overlap uses after the loop",
                        );
                        return;
                    }
                    cand.uses_dst.union(&uses_all);
                    cand.writes_bs.union(&writes_all);
                    // The initializer joins the web with the same binding.
                    cand.rebased.insert(inits[pos], translated.clone());
                }
                Err(e) => cand.fail(e.kind, format!("loop-body analysis failed: {}", e.message)),
            }
        }
        Exp::Scalar(_) | Exp::Alloc { .. } => {
            cand.fail(
                RejectReason::UnsupportedDefinition,
                "web member defined by a non-array expression",
            );
        }
    }
}

/// Rebased bindings for the web, its write/use summaries, and the
/// position of the fresh definition.
type NestedCandidateResult =
    Result<(HashMap<Var, MemBinding>, Summary, Summary, Option<usize>), Rejection>;

/// Run the backward candidate analysis over a nested block whose result
/// `target` must be short-circuited to `binding` (Fig. 5). `extra_web`
/// optionally seeds another variable (a loop merge parameter) into the
/// web with the same binding.
#[allow(clippy::too_many_arguments)]
fn analyze_nested_candidate(
    block: &Block,
    target: Var,
    extra_web: Option<(Var, MemBinding)>,
    binding: &MemBinding,
    dst_block: Var,
    env: &Env,
    outer_allocs: &HashSet<Var>,
    ctx: &Ctx,
) -> NestedCandidateResult {
    let index = BlockIndex::of(block);
    let mut web = HashMap::from([(target, binding.clone())]);
    web.extend(extra_web);
    let mut child = Candidate::new(
        CandidateKind::Update,
        target,
        dst_block,
        web,
        block.stms.len(),
        CircuitAction::ElideUpdate,
    );
    for k in (0..block.stms.len()).rev() {
        if !child.active() {
            break;
        }
        process_stm(&mut child, block, k, env, outer_allocs, &index, ctx);
    }
    if let Some(e) = child.failed {
        return Err(e);
    }
    if !child.finished {
        return Err(Rejection::new(
            RejectReason::FreshDefNotFound,
            "nested result's fresh definition not found",
        ));
    }
    Ok((
        child.rebased,
        child.uses_dst,
        child.writes_bs,
        child.finished_at,
    ))
}

/// [`analyze_nested_candidate`] for a loop body, where the merge
/// parameter (the previous iteration's value) is treated as an array
/// resident in the destination memory with the same binding — its reads
/// therefore register as destination uses, which is exactly condition (3)
/// of Fig. 5b.
#[allow(clippy::too_many_arguments)]
fn analyze_loop_body(
    body: &Block,
    target: Var,
    param: Var,
    binding: &MemBinding,
    dst_block: Var,
    env: &Env,
    outer_allocs: &HashSet<Var>,
    ctx: &Ctx,
) -> Result<(HashMap<Var, MemBinding>, Summary, Summary), Rejection> {
    let (reb, uses, writes, finished_at) = analyze_nested_candidate(
        body,
        target,
        Some((param, binding.clone())),
        binding,
        dst_block,
        env,
        outer_allocs,
        ctx,
    )?;
    // Fig. 5b condition (3): the web's fresh definition must come after
    // the last use of the iteration input `param` — otherwise the previous
    // iteration's values would be read after being overwritten.
    if let Some(f) = finished_at {
        for stm in &body.stms[f + 1..] {
            if stm.exp.free_vars().contains(&param) {
                return Err(Rejection::new(
                    RejectReason::MergeParamOrder,
                    format!("merge parameter {param} used at or after the fresh definition"),
                ));
            }
        }
        if body.result.contains(&param) {
            return Err(Rejection::new(
                RejectReason::MergeParamOrder,
                format!("merge parameter {param} escapes the body"),
            ));
        }
    }
    Ok((reb, uses, writes))
}

/// Two distinct iterations of a mapnest of the given width: fresh
/// symbols `i, d ≥ 0` and `j = i + 1 + d`, both rows within `[0, width)`.
/// Returns the environment knowing that, and the two row indices.
pub(crate) fn iteration_pair(env: &Env, width: &Poly) -> (Env, Poly, Poly) {
    let i = Sym::fresh("iter_i");
    let d = Sym::fresh("iter_d");
    let mut pair = env.clone();
    pair.assume_ge(i, 0);
    pair.assume_ge(d, 0);
    pair.assume_le(i, width.clone() - Poly::constant(2) - Poly::var(d));
    pair.assume_le(d, width.clone() - Poly::constant(2));
    let j = Poly::var(i) + Poly::constant(1) + Poly::var(d);
    (pair, Poly::var(i), j)
}

/// Row `at` of an index function: the outer dimension fixed, the rest
/// whole. `None` for a rank-0 layout or an inexpressible slice.
pub(crate) fn row_of(ixfn: &IndexFn, at: Poly) -> Option<IndexFn> {
    let shape = ixfn.shape();
    let (_, inner) = shape.split_first()?;
    let mut ts = vec![TripletSlice::Fix(at)];
    ts.extend(inner.iter().map(|s| TripletSlice::full(s.clone())));
    ixfn.transform(&Transform::Slice(ts))
}

/// Per-iteration mapnest check: writes of iteration `i` (row `i` of the
/// rebased output) must not overlap the row-wise reads of any *other*
/// iteration `j ≠ i` (iterations execute out of order, §V-B). Same-row
/// overlap is fine: instance `i` reads its own inputs before/while writing
/// its own row, with no cross-instance interference.
fn rowwise_map_disjoint(out_ixfn: &IndexFn, in_ixfn: &IndexFn, width: &Poly, env: &Env) -> bool {
    let (pair, i, j) = iteration_pair(env, width);
    let row = |ixfn: &IndexFn, at: &Poly| row_of(ixfn, at.clone())?.as_single().cloned();
    // Direction 1: write row i vs read row j > i.
    // Direction 2: write row j vs read row i < j.
    let (Some(w_i), Some(u_j)) = (row(out_ixfn, &i), row(in_ixfn, &j)) else {
        return false;
    };
    let (Some(w_j), Some(u_i)) = (row(out_ixfn, &j), row(in_ixfn, &i)) else {
        return false;
    };
    non_overlap(&w_i, &u_j, &pair) && non_overlap(&w_j, &u_i, &pair)
}

/// The input-aliasing discipline of in-place mapnests (§V-A(e)): every
/// input sharing the result's block must be fully disjoint from the
/// output footprint, or — when read row-wise — disjoint across
/// iterations.
pub(crate) fn inputs_clear(m: &MapExp, out_mb: &MemBinding, env: &Env, table: &MemTable) -> bool {
    let out_set = ixfn_set(&out_mb.ixfn);
    let whole: &[usize] = match &m.body {
        MapBody::Kernel { whole_inputs, .. } => whole_inputs,
        MapBody::Lambda { .. } => &[],
    };
    m.inputs.iter().enumerate().all(|(ii, inp)| {
        let Some(imb) = table.get(*inp) else {
            return true;
        };
        imb.block != out_mb.block
            || out_set.disjoint_from(&ixfn_set(&imb.ixfn), env)
            || (!whole.contains(&ii)
                && imb.ixfn.rank() >= 1
                && rowwise_map_disjoint(&out_mb.ixfn, &imb.ixfn, &m.width, env))
    })
}

/// `W(i) ∩ U(j) = ∅` for all `j > i` within the loop bounds: substitute
/// `j = i + 1 + d`, `d ≥ 0`, and test pairwise non-overlap.
fn cross_iteration_disjoint(
    writes_i: &Summary,
    uses_i: &Summary,
    index: Var,
    count: &Poly,
    env: &Env,
) -> bool {
    if uses_i.is_empty() || writes_i.is_empty() {
        return true;
    }
    let (Some(ws), Some(us)) = (writes_i.lmads(), uses_i.lmads()) else {
        return false;
    };
    let d = Sym::fresh("iter_d");
    let j = Poly::var(index) + Poly::constant(1) + Poly::var(d);
    let mut env2 = env.clone();
    env2.assume_ge(index, 0);
    env2.assume_ge(d, 0);
    // j ≤ count - 1  ⇒  d ≤ count - 2 - i
    env2.assume_le(d, count.clone() - Poly::constant(2) - Poly::var(index));
    for w in ws {
        for u in us {
            let u_later = u.subst(index, &j);
            if !non_overlap(w, &u_later, &env2) {
                return false;
            }
        }
    }
    true
}

/// Uses of the destination memory made by one statement outside the web
/// (reads and writes both count — §V-B).
fn stm_dst_uses(stm: &Stm, dst_block: Var, skip: &HashSet<Var>, env: &Env, ctx: &Ctx) -> Summary {
    let mut uses = Summary::empty();
    let add_var = |v: Var, uses: &mut Summary| {
        if skip.contains(&v) {
            return;
        }
        if let Some(mb) = ctx.binding(v) {
            if mb.block == dst_block {
                uses.union(&ixfn_set(&mb.ixfn));
            }
        }
    };
    match &stm.exp {
        Exp::Update {
            dst, slice, src, ..
        } => {
            if !skip.contains(dst) {
                if let Some(mb) = ctx.binding(*dst) {
                    if mb.block == dst_block {
                        uses.union(&slice_region(&mb.ixfn, slice));
                    }
                }
            }
            if let UpdateSrc::Array(s) = src {
                add_var(*s, &mut uses);
            }
        }
        Exp::If { .. } => {
            for b in stm.exp.blocks() {
                uses.union(&block_dst_uses(b, dst_block, skip, env, ctx));
            }
        }
        Exp::Loop {
            params,
            inits,
            index,
            count,
            body,
        } => {
            for init in inits {
                add_var(*init, &mut uses);
            }
            // A nested loop's body uses, aggregated over its iterations.
            // The body itself is summarized under the enclosing `env`;
            // only the aggregation knows the index bounds.
            let mut inner = block_dst_uses(body, dst_block, skip, env, ctx);
            for pe in params {
                if let Some(mb) = &pe.mem {
                    if mb.block == dst_block {
                        inner.union(&ixfn_set(&mb.ixfn));
                    }
                }
            }
            uses.union(&inner.aggregate(*index, count, &loop_env(env, *index, count)));
        }
        // Change-of-layout transforms are O(1) metadata operations: they
        // touch no memory and are not uses.
        Exp::Transform { .. } => {}
        _ => {
            for v in stm.exp.free_vars() {
                add_var(v, &mut uses);
            }
        }
    }
    uses
}

/// All uses of the destination memory in a block (recursive).
fn block_dst_uses(
    block: &Block,
    dst_block: Var,
    skip: &HashSet<Var>,
    env: &Env,
    ctx: &Ctx,
) -> Summary {
    let mut uses = Summary::empty();
    for stm in &block.stms {
        uses.union(&stm_dst_uses(stm, dst_block, skip, env, ctx));
        // Writes via bindings into the destination block also count.
        for pe in &stm.pat {
            if let Some(mb) = &pe.mem {
                if mb.block == dst_block {
                    uses.union(&ixfn_set(&mb.ixfn));
                }
            }
        }
    }
    uses
}

/// Post-pass: a kernel map with a non-scalar row may construct each row
/// directly in its result memory when no input view can alias memory the
/// map is writing (§V-A(e)). With the final (possibly rebased) bindings
/// this is a local check per map statement.
fn mark_in_place_maps(prog: &mut Program, env: &Env, report: &mut Report) {
    // Rebuild the final bindings (pattern annotations are authoritative).
    let table = MemTable::build(prog);
    prog.body.for_each_stm_in_mut(env, &mut |stm, env| {
        let Exp::Map(m) = &mut stm.exp else { return };
        let is_row = matches!(&m.body, MapBody::Kernel { row_shape, .. } if !row_shape.is_empty());
        let out_mb = stm.pat[0]
            .mem
            .as_ref()
            .or_else(|| table.get(stm.pat[0].var));
        if is_row && out_mb.is_some_and(|out_mb| inputs_clear(m, out_mb, env, &table)) {
            m.in_place_result = true;
            report.in_place_maps += 1;
            report.in_place_stms.push(stm.pat[0].var);
        }
    });
}
