//! Expressions, statements, blocks and programs — and the one traversal
//! interface over them. Which constructs nest a block ([`Exp::blocks`]),
//! what a statement binds ([`Stm::bound`]) and what is known about a loop
//! index inside its body ([`loop_env`]) are decided here and nowhere
//! else: a pass reaches nested statements through
//! [`Block::for_each_stm`] (or its scoped / mutable variants), so a new
//! nesting construct is added in this file only.

use crate::types::{Constant, ElemType, Type};
use arraymem_lmad::{IndexFn, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{Env, Poly, Sym};

/// Program variables are interned symbols, so scalar `i64` variables can
/// appear directly inside symbolic size and index-function polynomials.
pub type Var = Sym;

/// Binary scalar operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    Eq,
    Ne,
    Lt,
    Le,
    And,
    Or,
}

/// Unary scalar operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    Neg,
    Not,
    Sqrt,
    Exp,
    Log,
    Abs,
    ToF32,
    ToF64,
    ToI64,
}

/// The scalar expression language used in sizes, lambda bodies and update
/// sources.
#[derive(Clone, Debug)]
pub enum ScalarExp {
    Const(Constant),
    Var(Var),
    /// A symbolic size expression evaluated over the scalar `i64`
    /// environment.
    Size(Poly),
    Bin(BinOp, Box<ScalarExp>, Box<ScalarExp>),
    Un(UnOp, Box<ScalarExp>),
    /// Array element read `A[i, j, ...]`.
    Index(Var, Vec<ScalarExp>),
    /// `if c then t else f` on scalars.
    Select(Box<ScalarExp>, Box<ScalarExp>, Box<ScalarExp>),
}

impl ScalarExp {
    pub fn var(v: Var) -> ScalarExp {
        ScalarExp::Var(v)
    }

    pub fn i64(x: i64) -> ScalarExp {
        ScalarExp::Const(Constant::I64(x))
    }

    pub fn f32(x: f32) -> ScalarExp {
        ScalarExp::Const(Constant::F32(x))
    }

    pub fn bin(op: BinOp, a: ScalarExp, b: ScalarExp) -> ScalarExp {
        ScalarExp::Bin(op, Box::new(a), Box::new(b))
    }

    pub fn un(op: UnOp, a: ScalarExp) -> ScalarExp {
        ScalarExp::Un(op, Box::new(a))
    }

    /// Free variables (program variables, including those inside `Size`
    /// polynomials and indexed arrays).
    pub fn free_vars(&self, out: &mut Vec<Var>) {
        match self {
            ScalarExp::Const(_) => {}
            ScalarExp::Var(v) => out.push(*v),
            ScalarExp::Size(p) => out.extend(p.vars()),
            ScalarExp::Bin(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            ScalarExp::Un(_, a) => a.free_vars(out),
            ScalarExp::Index(v, idx) => {
                out.push(*v);
                for i in idx {
                    i.free_vars(out);
                }
            }
            ScalarExp::Select(c, t, f) => {
                c.free_vars(out);
                t.free_vars(out);
                f.free_vars(out);
            }
        }
    }
}

/// A slice specification for reads and updates.
#[derive(Clone, Debug)]
pub enum SliceSpec {
    /// Triplet notation, one entry per dimension.
    Triplet(Vec<TripletSlice>),
    /// Generalized LMAD slicing (§III-B), over the flat index space.
    Lmad(Lmad),
    /// A single element.
    Point(Vec<ScalarExp>),
    /// A **scatter** slice: the named rank-1 `i64` array holds the
    /// positions written, so `dst with [scatter idx] = src` performs
    /// `dst[idx[k]] = src[k]` for `k` ascending (duplicate indices are
    /// legal; the last write wins). The written footprint is
    /// runtime-indexed — no affine summary exists (see
    /// `arraymem_lmad::OpaqueIxFn`) — so the affine passes must degrade
    /// soundly around it.
    Scatter(Var),
}

impl SliceSpec {
    /// Free variables of the slice.
    pub fn free_vars(&self, out: &mut Vec<Var>) {
        match self {
            SliceSpec::Triplet(ts) => {
                for t in ts {
                    match t {
                        TripletSlice::Range { start, len, step } => {
                            out.extend(start.vars());
                            out.extend(len.vars());
                            out.extend(step.vars());
                        }
                        TripletSlice::Fix(i) => out.extend(i.vars()),
                    }
                }
            }
            SliceSpec::Lmad(l) => out.extend(l.vars()),
            SliceSpec::Point(es) => {
                for e in es {
                    e.free_vars(out);
                }
            }
            SliceSpec::Scatter(idx) => out.push(*idx),
        }
    }
}

/// The source of an update: a whole array written at a slice, or a scalar
/// written at a point. Scalar-source updates are always in place (the
/// uniqueness discipline of §II-C) — only array-source updates carry the
/// copy that short-circuiting elides.
#[derive(Clone, Debug)]
pub enum UpdateSrc {
    Array(Var),
    Scalar(ScalarExp),
}

/// The body of a `map`.
#[derive(Clone, Debug)]
pub enum MapBody {
    /// An interpreted per-element lambda over rank-1 inputs, returning one
    /// scalar per pattern element.
    Lambda {
        params: Vec<(Var, Type)>,
        body: Block,
    },
    /// A registered native kernel (the moral equivalent of generated GPU
    /// code): for each index `i` it computes one output row of shape
    /// `row_shape` (empty = scalar element), reading the `inputs` views
    /// arbitrarily. `args` are scalar arguments.
    Kernel {
        name: String,
        elem: ElemType,
        row_shape: Vec<Poly>,
        args: Vec<ScalarExp>,
        /// Indices of inputs the kernel may read *arbitrarily*. All other
        /// inputs are read **row-wise**: instance `i` touches only
        /// `input[i, ...]`. This contract is what the index analysis
        /// relies on for the out-of-order mapnest safety check (§V-B).
        whole_inputs: Vec<usize>,
    },
}

/// A parallel map (a mapnest of depth one, §V-A(e)).
#[derive(Clone, Debug)]
pub struct MapExp {
    pub width: Poly,
    pub inputs: Vec<Var>,
    pub body: MapBody,
    /// Set by short-circuiting when the implicit per-iteration result copy
    /// (`xss[i] = rs'`) has been elided: the body then constructs its row
    /// directly in the result memory. `false` until the pass runs.
    pub in_place_result: bool,
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Exp {
    Scalar(ScalarExp),
    /// Allocate a memory block of `size` elements of type `elem`. Only
    /// introduced by the memory pass.
    Alloc {
        elem: ElemType,
        size: Poly,
    },
    /// `[0, 1, ..., n-1] : [n]i64` (fresh).
    Iota(Poly),
    /// A fresh uninitialized array (§II-C).
    Scratch {
        elem: ElemType,
        shape: Vec<Poly>,
    },
    /// A fresh array filled with one value.
    Replicate {
        shape: Vec<Poly>,
        value: ScalarExp,
    },
    /// A fresh copy of an existing array.
    Copy(Var),
    /// Concatenation along the outer dimension (fresh). `elided[k]` is set
    /// by short-circuiting when argument `k` was constructed directly in
    /// the result memory and needs no copy.
    Concat {
        args: Vec<Var>,
        elided: Vec<bool>,
    },
    /// O(1) change-of-layout; aliases `src`.
    Transform {
        src: Var,
        tr: Transform,
    },
    /// `gather src idx` — a fresh rank-1 array with
    /// `out[i] = src[idx[i]]` for every `i` below the index array's
    /// length. The read footprint over `src` is runtime-indexed (opaque
    /// to the affine analyses); the *write* footprint of the result is a
    /// plain dense row-major array, so downstream affine reasoning about
    /// the result itself stays fully enabled.
    Gather {
        src: Var,
        idx: Var,
    },
    Map(MapExp),
    /// `let dst[slice] = src` — in-place by the uniqueness discipline; the
    /// array-source copy is elided when short-circuiting proved the source
    /// was constructed in place.
    Update {
        dst: Var,
        slice: SliceSpec,
        src: UpdateSrc,
        elided: bool,
    },
    If {
        cond: ScalarExp,
        then_b: Block,
        else_b: Block,
    },
    /// `loop (p = init) for index < count do body`, returning the final
    /// merge values.
    Loop {
        /// Merge parameters (carry memory bindings after introduction).
        params: Vec<PatElem>,
        inits: Vec<Var>,
        index: Var,
        count: Poly,
        body: Block,
    },
}

/// A memory annotation on an array binding: the memory block variable and
/// the index function laying the array out inside it (paper §IV-C).
#[derive(Clone, Debug)]
pub struct MemBinding {
    pub block: Var,
    pub ixfn: IndexFn,
}

/// One element of a statement pattern.
#[derive(Clone, Debug)]
pub struct PatElem {
    pub var: Var,
    pub ty: Type,
    /// `None` before memory introduction; `Some` on array bindings after.
    pub mem: Option<MemBinding>,
}

impl PatElem {
    pub fn new(var: Var, ty: Type) -> PatElem {
        PatElem { var, ty, mem: None }
    }
}

/// A statement: a pattern bound to an expression.
#[derive(Clone, Debug)]
pub struct Stm {
    pub pat: Vec<PatElem>,
    pub exp: Exp,
}

/// A block of statements with result variables.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub stms: Vec<Stm>,
    pub result: Vec<Var>,
}

/// A whole program (one entry function).
#[derive(Clone, Debug)]
pub struct Program {
    pub name: String,
    pub params: Vec<(Var, Type)>,
    pub body: Block,
    /// Fingerprint of the middle-end pipeline (pass set, ordering and
    /// options) that produced this program; `0` for source programs that
    /// have not been compiled. Stamped by `arraymem-core`'s pipeline
    /// driver. It rides along in the `Debug` rendering, so the executor's
    /// plan-cache key — a hash of that rendering — distinguishes otherwise
    /// identical IR produced by different pass configurations: toggling a
    /// pass can never serve a stale plan.
    pub pipeline_fingerprint: u64,
}

/// The environment inside the body of `loop ... for index < count`:
/// `env` plus `0 ≤ index ≤ count − 1`.
pub fn loop_env(env: &Env, index: Var, count: &Poly) -> Env {
    let mut inner = env.clone();
    inner.assume_ge(index, 0);
    inner.assume_le(index, count.clone() - Poly::constant(1));
    inner
}

impl Stm {
    /// Everything the statement binds that can carry a memory annotation:
    /// its pattern elements, then — for a `loop` — the merge parameters.
    pub fn bound(&self) -> impl Iterator<Item = &PatElem> {
        let params: &[PatElem] = match &self.exp {
            Exp::Loop { params, .. } => params,
            _ => &[],
        };
        self.pat.iter().chain(params)
    }

    /// [`Stm::bound`], mutably.
    pub fn bound_mut(&mut self) -> impl Iterator<Item = &mut PatElem> {
        let params: &mut [PatElem] = match &mut self.exp {
            Exp::Loop { params, .. } => params,
            _ => &mut [],
        };
        self.pat.iter_mut().chain(params)
    }
}

impl Exp {
    /// The blocks nested directly inside the expression: the branches of
    /// an `if`, the body of a `loop`, the body of a lambda `map`.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        let (a, b) = match self {
            Exp::If { then_b, else_b, .. } => (Some(then_b), Some(else_b)),
            Exp::Loop { body, .. } => (Some(body), None),
            Exp::Map(m) => match &m.body {
                MapBody::Lambda { body, .. } => (Some(body), None),
                MapBody::Kernel { .. } => (None, None),
            },
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// [`Exp::blocks`], mutably.
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut Block> {
        let (a, b) = match self {
            Exp::If { then_b, else_b, .. } => (Some(then_b), Some(else_b)),
            Exp::Loop { body, .. } => (Some(body), None),
            Exp::Map(m) => match &mut m.body {
                MapBody::Lambda { body, .. } => (Some(body), None),
                MapBody::Kernel { .. } => (None, None),
            },
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Variables consumed/used by the expression, *including* free
    /// variables of nested blocks (but not their locally-bound ones).
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        match self {
            Exp::Scalar(e) => e.free_vars(&mut out),
            Exp::Alloc { size, .. } => out.extend(size.vars()),
            Exp::Iota(n) => out.extend(n.vars()),
            Exp::Scratch { shape, .. } => {
                for d in shape {
                    out.extend(d.vars());
                }
            }
            Exp::Replicate { shape, value } => {
                for d in shape {
                    out.extend(d.vars());
                }
                value.free_vars(&mut out);
            }
            Exp::Copy(v) => out.push(*v),
            Exp::Concat { args, .. } => out.extend(args.iter().copied()),
            Exp::Transform { src, .. } => out.push(*src),
            Exp::Gather { src, idx } => {
                out.push(*src);
                out.push(*idx);
            }
            Exp::Map(m) => {
                out.extend(m.width.vars());
                out.extend(m.inputs.iter().copied());
                match &m.body {
                    MapBody::Lambda { params, body } => {
                        let mut inner = body.free_vars();
                        inner.retain(|v| !params.iter().any(|(p, _)| p == v));
                        out.extend(inner);
                    }
                    MapBody::Kernel {
                        row_shape, args, ..
                    } => {
                        for d in row_shape {
                            out.extend(d.vars());
                        }
                        for a in args {
                            a.free_vars(&mut out);
                        }
                    }
                }
            }
            Exp::Update {
                dst, slice, src, ..
            } => {
                out.push(*dst);
                slice.free_vars(&mut out);
                match src {
                    UpdateSrc::Array(v) => out.push(*v),
                    UpdateSrc::Scalar(e) => e.free_vars(&mut out),
                }
            }
            Exp::If {
                cond,
                then_b,
                else_b,
            } => {
                cond.free_vars(&mut out);
                out.extend(then_b.free_vars());
                out.extend(else_b.free_vars());
            }
            Exp::Loop {
                params,
                inits,
                index,
                count,
                body,
            } => {
                out.extend(inits.iter().copied());
                out.extend(count.vars());
                let mut inner = body.free_vars();
                inner.retain(|v| *v != *index && !params.iter().any(|pe| pe.var == *v));
                out.extend(inner);
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl Block {
    /// Visit every statement of the block at every nesting depth, in
    /// pre-order (a statement before the statements nested inside it).
    pub fn for_each_stm(&self, f: &mut impl FnMut(&Stm)) {
        self.for_each_stm_in(&Env::default(), &mut |stm, _| f(stm));
    }

    /// The block each annotated array bound in this block lives in, at
    /// every depth: pattern elements and loop merge parameters.
    pub fn homes(&self) -> std::collections::HashMap<Var, Var> {
        let mut out = std::collections::HashMap::new();
        let home = |pe: &PatElem| Some((pe.var, pe.mem.as_ref()?.block));
        self.for_each_stm(&mut |stm| out.extend(stm.bound().filter_map(home)));
        out
    }

    /// [`Block::for_each_stm`], handing each statement the environment in
    /// scope where it stands: `env` extended by [`loop_env`] for every
    /// enclosing loop body.
    pub fn for_each_stm_in(&self, env: &Env, f: &mut impl FnMut(&Stm, &Env)) {
        for stm in &self.stms {
            f(stm, env);
            if let Exp::Loop {
                index, count, body, ..
            } = &stm.exp
            {
                body.for_each_stm_in(&loop_env(env, *index, count), f);
            } else {
                for b in stm.exp.blocks() {
                    b.for_each_stm_in(env, f);
                }
            }
        }
    }

    /// [`Block::for_each_stm`], mutably.
    pub fn for_each_stm_mut(&mut self, f: &mut impl FnMut(&mut Stm)) {
        self.for_each_stm_in_mut(&Env::default(), &mut |stm, _| f(stm));
    }

    /// [`Block::for_each_stm_in`], mutably.
    pub fn for_each_stm_in_mut(&mut self, env: &Env, f: &mut impl FnMut(&mut Stm, &Env)) {
        for stm in &mut self.stms {
            f(stm, env);
            if let Exp::Loop {
                index, count, body, ..
            } = &mut stm.exp
            {
                body.for_each_stm_in_mut(&loop_env(env, *index, count), f);
            } else {
                for b in stm.exp.blocks_mut() {
                    b.for_each_stm_in_mut(env, f);
                }
            }
        }
    }

    /// Free variables of the whole block (used before defined, plus results
    /// not bound inside).
    pub fn free_vars(&self) -> Vec<Var> {
        let mut bound: Vec<Var> = Vec::new();
        let mut out: Vec<Var> = Vec::new();
        for stm in &self.stms {
            for v in stm.exp.free_vars() {
                if !bound.contains(&v) {
                    out.push(v);
                }
            }
            // The pattern binds before its annotations are scanned:
            // existential memory is a pattern sibling of the array binding
            // that references it, not a free variable of the block.
            bound.extend(stm.pat.iter().map(|p| p.var));
            // Memory annotations may reference block variables.
            for pe in &stm.pat {
                if let Some(mb) = &pe.mem {
                    if !bound.contains(&mb.block) {
                        out.push(mb.block);
                    }
                    for v in mb.ixfn.vars() {
                        if !bound.contains(&v) {
                            out.push(v);
                        }
                    }
                }
            }
        }
        for v in &self.result {
            if !bound.contains(v) {
                out.push(*v);
            }
        }
        out.sort();
        out.dedup();
        out
    }
}
