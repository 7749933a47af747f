//! Scalar semantics, pinned: what every scalar operator computes over
//! every pair of operand types — tags and promotions included — as a
//! golden file. The fuzzer's oracle (`Mode::Pure`) shares the scalar
//! evaluator with the modes it judges, so a drift there is invisible to
//! differential fuzzing; this file is what sees it.
//!
//! Each expression is evaluated in three places — a top-level scalar
//! statement, the body of a width-3 `map_lambda`, the source of a point
//! update — and in `Pure`, `Memory` and `Checked`. A line holds the
//! result's type tag and bit pattern, or the error text. NaN prints as
//! `nan`: which NaN an operation yields is the hardware's choice. The
//! update also runs inside a one-trip loop, which `Memory` runs typed; that
//! line is not in the golden file but held equal to the update's.
//! Integer arithmetic that would overflow is not generated, and neither
//! is a float where a boolean is needed: both are errors of the request,
//! pinned by `exec::tests::integer_overflow_is_an_error_not_a_panic`.
//!
//! Regenerate with `ARRAYMEM_BLESS=1 cargo test -p arraymem-bench --test
//! scalar_semantics` — only for a change that means to change a result.

use arraymem_core::{compile, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode, OutputValue, Session};
use arraymem_ir::pretty::scrub_uniques;
use arraymem_ir::{BinOp, Builder, Constant, ElemType, Program, ScalarExp, UnOp, Var};
use arraymem_lmad::Transform;
use arraymem_symbolic::{Poly, Rng64};
use std::fmt::Write;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Val {
    F32(f32),
    F64(f64),
    I64(i64),
    Bool(bool),
}

impl Val {
    fn ty(self) -> ElemType {
        match self {
            Val::F32(_) => ElemType::F32,
            Val::F64(_) => ElemType::F64,
            Val::I64(_) => ElemType::I64,
            Val::Bool(_) => ElemType::Bool,
        }
    }

    fn constant(self) -> ScalarExp {
        ScalarExp::Const(match self {
            Val::F32(x) => Constant::F32(x),
            Val::F64(x) => Constant::F64(x),
            Val::I64(x) => Constant::I64(x),
            Val::Bool(x) => Constant::Bool(x),
        })
    }

    /// The integer an integer-arm operator sees (`None` for floats).
    fn int(self) -> Option<i64> {
        match self {
            Val::I64(x) => Some(x),
            Val::Bool(b) => Some(b as i64),
            _ => None,
        }
    }
}

/// The arrays every program can index: `af: [4]f32`, `ai: [4]i64`,
/// `ad: [2][3]f64` and `adt`, the transposed view of `ad`.
#[derive(Clone, Copy, Debug)]
enum Arr {
    Af,
    Ai,
    Ad,
    Adt,
}

const AF: [f32; 4] = [0.5, -1.25, 3.0, -0.0];
const AI: [i64; 4] = [3, -2, 0, 9];
const AD: [f64; 6] = [0.25, -4.0, 1.0e10, 2.5, -0.5, 8.0];

/// Variable `k` of an expression: two per type, in the order f32, f64,
/// i64, bool. Their values are the expression's own (`Case::vals`).
const VAR_NAMES: [&str; 8] = ["f32a", "f32b", "f64a", "f64b", "i64a", "i64b", "ba", "bb"];
const TAME_VALS: [Val; 8] = [
    Val::F32(1.5),
    Val::F32(-0.5),
    Val::F64(-2.25),
    Val::F64(3.0),
    Val::I64(7),
    Val::I64(-3),
    Val::Bool(true),
    Val::Bool(false),
];

#[derive(Clone, Debug)]
enum E {
    Const(Val),
    Var(usize),
    /// Σ coefficient × Π variables, plus a constant.
    Size(Vec<(i64, Vec<usize>)>, i64),
    Bin(BinOp, Box<E>, Box<E>),
    Un(UnOp, Box<E>),
    Index(Arr, Vec<E>),
    Select(Box<E>, Box<E>, Box<E>),
}

fn bin(op: BinOp, a: E, b: E) -> E {
    E::Bin(op, Box::new(a), Box::new(b))
}

fn un(op: UnOp, a: E) -> E {
    E::Un(op, Box::new(a))
}

fn select(c: E, t: E, f: E) -> E {
    E::Select(Box::new(c), Box::new(t), Box::new(f))
}

fn int(x: i64) -> E {
    E::Const(Val::I64(x))
}

struct Case {
    exp: E,
    vals: [Val; 8],
    /// Declared type of the statement / map / updated array.
    declared: ElemType,
}

/// What an expression evaluates to, as far as generation needs to know:
/// `Some(ty)` when the type is certain, `None` when it is not (the
/// expression errors, or a `select` picks between types).
fn type_of(e: &E, vals: &[Val; 8]) -> Option<ElemType> {
    use ElemType::*;
    Some(match e {
        E::Const(v) => v.ty(),
        E::Var(k) => vals[*k].ty(),
        E::Size(..) => I64,
        E::Index(a, _) => match a {
            Arr::Af => F32,
            Arr::Ai => I64,
            Arr::Ad | Arr::Adt => F64,
        },
        E::Bin(op, a, b) => {
            let (ta, tb) = (type_of(a, vals)?, type_of(b, vals)?);
            let arith = matches!(
                op,
                BinOp::Add
                    | BinOp::Sub
                    | BinOp::Mul
                    | BinOp::Div
                    | BinOp::Rem
                    | BinOp::Min
                    | BinOp::Max
            );
            let logic = matches!(op, BinOp::And | BinOp::Or);
            let float = [F32, F64].into_iter().find(|f| ta == *f || tb == *f);
            match float {
                Some(_) if logic => return None,
                Some(f) if arith => f,
                Some(_) => Bool,
                None if (ta, tb) == (Bool, Bool) && arith => return None,
                None if arith => I64,
                None => Bool,
            }
        }
        E::Un(op, a) => {
            let t = type_of(a, vals)?;
            match op {
                UnOp::Neg | UnOp::Abs if t == Bool => return None,
                UnOp::Neg | UnOp::Abs => t,
                UnOp::Not => Bool,
                UnOp::Sqrt | UnOp::Exp | UnOp::Log if t == F64 => F64,
                UnOp::Sqrt | UnOp::Exp | UnOp::Log => F32,
                UnOp::ToF32 => F32,
                UnOp::ToF64 => F64,
                UnOp::ToI64 => I64,
            }
        }
        E::Select(_, t, f) => {
            let (tt, tf) = (type_of(t, vals)?, type_of(f, vals)?);
            if tt != tf {
                return None;
            }
            tt
        }
    })
}

/// A declared type the evaluator can coerce the result to without
/// panicking: `bool` only takes what is certainly a boolean or integer.
fn declared_for(e: &E, vals: &[Val; 8], pick: usize) -> ElemType {
    use ElemType::*;
    match type_of(e, vals) {
        Some(Bool | I64) => [I64, Bool, F32, F64][pick % 4],
        _ => [F32, F64, I64][pick % 3],
    }
}

fn show(e: &E, vals: &[Val; 8]) -> String {
    match e {
        E::Const(v) => format!("{v:?}"),
        E::Var(k) => format!("{}={:?}", VAR_NAMES[*k], vals[*k]),
        E::Size(terms, k) => {
            let mut s = String::from("size(");
            for (c, vs) in terms {
                write!(s, "{c}").unwrap();
                for v in vs {
                    write!(s, "*{}", VAR_NAMES[*v]).unwrap();
                }
                s.push_str(" + ");
            }
            write!(s, "{k})").unwrap();
            s
        }
        E::Bin(op, a, b) => format!("({} {op:?} {})", show(a, vals), show(b, vals)),
        E::Un(op, a) => format!("{op:?}({})", show(a, vals)),
        E::Index(a, idx) => format!(
            "{a:?}[{}]",
            idx.iter()
                .map(|i| show(i, vals))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        E::Select(c, t, f) => format!(
            "select({}, {}, {})",
            show(c, vals),
            show(t, vals),
            show(f, vals)
        ),
    }
}

/// The program variables an expression's leaves stand for.
struct Frame {
    vars: [Var; 8],
    af: Var,
    ai: Var,
    ad: Var,
    adt: Var,
}

fn instantiate(e: &E, f: &Frame) -> ScalarExp {
    match e {
        E::Const(v) => v.constant(),
        E::Var(k) => ScalarExp::var(f.vars[*k]),
        E::Size(terms, k) => {
            let mut p = Poly::constant(*k);
            for (c, vs) in terms {
                let mut t = Poly::constant(*c);
                for v in vs {
                    t = t * Poly::var(f.vars[*v]);
                }
                p = p + t;
            }
            ScalarExp::Size(p)
        }
        E::Bin(op, a, b) => ScalarExp::bin(*op, instantiate(a, f), instantiate(b, f)),
        E::Un(op, a) => ScalarExp::un(*op, instantiate(a, f)),
        E::Index(a, idx) => {
            let arr = match a {
                Arr::Af => f.af,
                Arr::Ai => f.ai,
                Arr::Ad => f.ad,
                Arr::Adt => f.adt,
            };
            ScalarExp::Index(arr, idx.iter().map(|i| instantiate(i, f)).collect())
        }
        E::Select(c, t, e) => ScalarExp::Select(
            Box::new(instantiate(c, f)),
            Box::new(instantiate(t, f)),
            Box::new(instantiate(e, f)),
        ),
    }
}

#[derive(Clone, Copy, Debug)]
enum Context {
    Top,
    Lambda,
    Update,
    /// The update's statement inside a one-trip loop, which `Memory` runs
    /// typed: not in the golden file, held equal to the update's line.
    Loop,
}

fn zero(elem: ElemType) -> ScalarExp {
    match elem {
        ElemType::F32 => Val::F32(0.0),
        ElemType::F64 => Val::F64(0.0),
        ElemType::I64 => Val::I64(0),
        ElemType::Bool => Val::Bool(false),
    }
    .constant()
}

/// One program per (expression, context). Every program has the same
/// parameters: the eight scalars, six `[3]` arrays holding the six
/// numeric scalars replicated (the lambda's inputs), and the indexable
/// arrays.
fn build(case: &Case, id: usize, cx: Context) -> (Program, Vec<InputValue>) {
    let c = Poly::constant;
    let mut bld = Builder::new("scalar_semantics");
    let mut inputs = Vec::new();
    let scalars: Vec<Var> = (0..8)
        .map(|k| {
            inputs.push(match case.vals[k] {
                Val::F32(x) => InputValue::F32(x),
                Val::F64(x) => InputValue::F64(x),
                Val::I64(x) => InputValue::I64(x),
                Val::Bool(x) => InputValue::Bool(x),
            });
            bld.scalar_param(VAR_NAMES[k], case.vals[k].ty())
        })
        .collect();
    let lanes: Vec<Var> = (0..6)
        .map(|k| {
            inputs.push(match case.vals[k] {
                Val::F32(x) => InputValue::ArrayF32(vec![x; 3]),
                Val::F64(x) => InputValue::ArrayF64(vec![x; 3]),
                Val::I64(x) => InputValue::ArrayI64(vec![x; 3]),
                Val::Bool(_) => unreachable!("the first six variables are numbers"),
            });
            bld.array_param(&format!("{}s", VAR_NAMES[k]), case.vals[k].ty(), vec![c(3)])
        })
        .collect();
    let af = bld.array_param("af", ElemType::F32, vec![c(4)]);
    let ai = bld.array_param("ai", ElemType::I64, vec![c(4)]);
    let ad = bld.array_param("ad", ElemType::F64, vec![c(2), c(3)]);
    inputs.push(InputValue::ArrayF32(AF.to_vec()));
    inputs.push(InputValue::ArrayI64(AI.to_vec()));
    inputs.push(InputValue::ArrayF64(AD.to_vec()));

    let mut b = bld.block();
    let adt = b.transform("adt", ad, Transform::Permute(vec![1, 0]));
    let mut frame = Frame {
        vars: scalars.clone().try_into().unwrap(),
        af,
        ai,
        ad,
        adt,
    };
    let elem = case.declared;
    let result = match cx {
        Context::Top => b.scalar("r", elem, instantiate(&case.exp, &frame)),
        Context::Lambda => b.map_lambda("rs", c(3), lanes, elem, |lb, ps| {
            frame.vars[..6].copy_from_slice(ps);
            vec![lb.scalar("r", elem, instantiate(&case.exp, &frame))]
        }),
        Context::Update | Context::Loop => {
            let ys = b.replicate_typed("ys", elem, vec![c(4)], zero(elem));
            // The coordinate is an expression too: `id mod 4`.
            let at = ScalarExp::bin(BinOp::Rem, ScalarExp::i64(id as i64), ScalarExp::i64(4));
            let exp = instantiate(&case.exp, &frame);
            if let Context::Update = cx {
                b.update_scalar("ys2", ys, vec![at], exp)
            } else {
                let (p, k) = (b.loop_param("ys_p", ys), b.loop_index("k"));
                let mut lb = bld.block();
                let ys2 = lb.update_scalar("ys2", p, vec![at], exp);
                let body = lb.finish(vec![ys2]);
                b.loop_(vec!["ys3"], vec![(p, bld.ty(ys))], vec![ys], k, c(1), body)[0]
            }
        }
    };
    (bld.finish(b.finish(vec![result])), inputs)
}

fn f32_bits(x: f32) -> String {
    if x.is_nan() {
        "nan".into()
    } else {
        format!("{:08x}", x.to_bits())
    }
}

fn f64_bits(x: f64) -> String {
    if x.is_nan() {
        "nan".into()
    } else {
        format!("{:016x}", x.to_bits())
    }
}

fn join<T>(xs: &[T], f: impl Fn(&T) -> String) -> String {
    xs.iter().map(f).collect::<Vec<_>>().join(" ")
}

fn render(out: &[OutputValue]) -> String {
    assert_eq!(out.len(), 1);
    match &out[0] {
        OutputValue::F32(x) => format!("F32:{}", f32_bits(*x)),
        OutputValue::F64(x) => format!("F64:{}", f64_bits(*x)),
        OutputValue::I64(x) => format!("I64:{x:016x}"),
        OutputValue::Bool(x) => format!("Bool:{}", *x as u8),
        OutputValue::ArrayF32(v) => format!("[F32: {}]", join(v, |x| f32_bits(*x))),
        OutputValue::ArrayF64(v) => format!("[F64: {}]", join(v, |x| f64_bits(*x))),
        OutputValue::ArrayI64(v) => format!("[I64: {}]", join(v, |x| format!("{x:x}"))),
    }
}

/// One (expression, context) in all three modes: one `all=` entry when
/// they agree, one entry per mode when they do not.
fn evaluate(case: &Case, id: usize, cx: Context) -> String {
    let kernels = KernelRegistry::new();
    let (prog, inputs) = build(case, id, cx);
    let line = |r: Result<(Vec<OutputValue>, arraymem_exec::Stats), String>| match r {
        Ok((out, stats)) if stats.diagnostics.is_empty() => render(&out),
        Ok((out, stats)) => format!("{} diags={}", render(&out), stats.diagnostics.len()),
        Err(e) => format!("! {}", scrub_uniques(&e)),
    };
    let pure = line(run_program(&prog, &inputs, &kernels, Mode::Pure, 1));
    let compiled = match compile(&prog, &Options::optimized()) {
        Ok(c) => c,
        Err(e) => return format!("pure={pure} compile=! {}", scrub_uniques(&e)),
    };
    let mut session = Session::new();
    let checks: Vec<_> = compiled.report.checks().cloned().collect();
    let h = session
        .prepare_full(
            &compiled.program,
            &kernels,
            &checks,
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .expect("prepare");
    let memory = line(session.run_plan(h, &inputs, &kernels, Mode::Memory, 1));
    let checked = line(session.run_plan(h, &inputs, &kernels, Mode::Checked, 1));
    if pure == memory && memory == checked {
        format!("all={pure}")
    } else {
        format!("pure={pure} memory={memory} checked={checked}")
    }
}

const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::And,
    BinOp::Or,
];

const UN_OPS: [UnOp; 9] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::Sqrt,
    UnOp::Exp,
    UnOp::Log,
    UnOp::Abs,
    UnOp::ToF32,
    UnOp::ToF64,
    UnOp::ToI64,
];

/// The values each type's operands are drawn from, edge cases included.
fn pool(ty: usize) -> Vec<Val> {
    match ty {
        0 => [1.5, -0.0, f32::NAN, 3.0e38, -2.25, f32::INFINITY, 0.0]
            .map(Val::F32)
            .to_vec(),
        1 => [-2.25, 0.0, f64::NAN, 1.0e300, 0.1, -0.0, f64::NEG_INFINITY]
            .map(Val::F64)
            .to_vec(),
        2 => [7, 0, -1, i64::MIN, i64::MAX, -3, 2].map(Val::I64).to_vec(),
        _ => [true, false].map(Val::Bool).to_vec(),
    }
}

/// Would the integer arm of `op` overflow on these operands? (Debug
/// builds panic there, release builds wrap; neither is pinned.)
fn overflows(op: BinOp, a: Val, b: Val) -> bool {
    let (Some(x), Some(y)) = (a.int(), b.int()) else {
        return false;
    };
    match op {
        BinOp::Add => x.checked_add(y).is_none(),
        BinOp::Sub => x.checked_sub(y).is_none(),
        BinOp::Mul => x.checked_mul(y).is_none(),
        _ => false,
    }
}

/// A leaf holding `v`: a constant, or variable `slot` bound to `v`. The
/// extreme integers are always variables: the optimizer folds integer
/// constants into polynomials, with overflow checks of its own.
fn leaf(v: Val, slot: usize, as_var: bool, vals: &mut [Val; 8]) -> E {
    if as_var || matches!(v, Val::I64(i64::MIN | i64::MAX)) {
        vals[slot] = v;
        E::Var(slot)
    } else {
        E::Const(v)
    }
}

/// A small in-range coordinate below `n`, as a constant, a variable or an
/// expression.
fn coord(r: &mut Rng64, n: i64, vals: &[Val; 8]) -> E {
    let k = r.i64_in(0, n);
    match r.usize_in(3) {
        0 => int(k),
        // i64a is 7 in the tame values: 7 mod n.
        1 if vals[4] == Val::I64(7) => bin(BinOp::Rem, E::Var(4), int(n)),
        _ => bin(BinOp::Sub, int(k + 2), int(2)),
    }
}

fn index(r: &mut Rng64, vals: &[Val; 8]) -> E {
    match r.usize_in(4) {
        0 => E::Index(Arr::Af, vec![coord(r, 4, vals)]),
        1 => E::Index(Arr::Ai, vec![coord(r, 4, vals)]),
        2 => E::Index(Arr::Ad, vec![coord(r, 2, vals), coord(r, 3, vals)]),
        _ => E::Index(Arr::Adt, vec![coord(r, 3, vals), coord(r, 2, vals)]),
    }
}

/// A boolean-or-integer expression: what `not` and a `select` condition
/// accept.
fn tame_cond(r: &mut Rng64, depth: usize) -> E {
    match r.usize_in(4) {
        0 => E::Var(6 + r.usize_in(2)),
        1 => E::Var(4 + r.usize_in(2)),
        2 => E::Const(Val::Bool(r.chance(0.5))),
        _ => {
            let op = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le][r.usize_in(4)];
            bin(op, tame(r, depth), tame(r, depth))
        }
    }
}

/// A random tree over small values: integers stay far from overflow
/// (no float → integer cast below the root), floats are what they are.
fn tame(r: &mut Rng64, depth: usize) -> E {
    if depth == 0 || r.chance(0.2) {
        return match r.usize_in(6) {
            0 => E::Var(r.usize_in(8)),
            1 => int(r.i64_incl(-9, 9)),
            2 => E::Const(Val::F32([0.5, -0.5, 1.5, -2.25, 3.0, 0.0][r.usize_in(6)])),
            3 => E::Const(Val::F64([0.5, -0.5, 1.5, -2.25, 3.0, 0.0][r.usize_in(6)])),
            4 => index(r, &TAME_VALS),
            _ => E::Size(vec![(r.i64_incl(-2, 2), vec![4]), (1, vec![5, 6])], 1),
        };
    }
    match r.usize_in(10) {
        0..=5 => bin(
            BIN_OPS[r.usize_in(13)],
            tame(r, depth - 1),
            tame(r, depth - 1),
        ),
        6 | 7 => {
            let op = [
                UnOp::Neg,
                UnOp::Sqrt,
                UnOp::Log,
                UnOp::Abs,
                UnOp::ToF32,
                UnOp::ToF64,
            ][r.usize_in(6)];
            un(op, tame(r, depth - 1))
        }
        8 => un(UnOp::Not, tame_cond(r, depth - 1)),
        _ => select(
            tame_cond(r, depth - 1),
            tame(r, depth - 1),
            tame(r, depth - 1),
        ),
    }
}

fn cases() -> Vec<Case> {
    let mut r = Rng64::new(0x5ca1a5);
    let mut out: Vec<Case> = Vec::new();
    let push = |exp: E, vals: [Val; 8], out: &mut Vec<Case>| {
        let declared = declared_for(&exp, &vals, out.len());
        out.push(Case {
            exp,
            vals,
            declared,
        });
    };

    // Every binary operator over every pair of operand types, twice,
    // operands drawn from the edge-case pools as constants or variables.
    for op in BIN_OPS {
        for ta in 0..4 {
            for tb in 0..4 {
                let mut made = 0;
                while made < 2 {
                    let (pa, pb) = (pool(ta), pool(tb));
                    let (a, b) = (pa[r.usize_in(pa.len())], pb[r.usize_in(pb.len())]);
                    if overflows(op, a, b) {
                        continue;
                    }
                    let mut vals = TAME_VALS;
                    let ea = leaf(a, 2 * ta, r.chance(0.5), &mut vals);
                    let eb = leaf(b, 2 * tb + 1, r.chance(0.5), &mut vals);
                    push(bin(op, ea, eb), vals, &mut out);
                    made += 1;
                }
            }
        }
    }

    // Every unary operator over every operand type and pool value.
    for op in UN_OPS {
        for ty in 0..4 {
            for v in pool(ty) {
                let refused = match (op, v) {
                    // `not` of a float panics in the evaluator.
                    (UnOp::Not, Val::F32(_) | Val::F64(_)) => true,
                    (UnOp::Neg | UnOp::Abs, Val::I64(i64::MIN)) => true,
                    _ => false,
                };
                if refused {
                    continue;
                }
                let mut vals = TAME_VALS;
                let e = leaf(v, 2 * ty, r.chance(0.5), &mut vals);
                push(un(op, e), vals, &mut out);
            }
        }
    }

    // The undefined integer quotients, through constants and variables,
    // and a divisor that is only dead code.
    let min = Val::I64(i64::MIN);
    for op in [BinOp::Div, BinOp::Rem] {
        for (a, b) in [
            (Val::I64(7), Val::I64(0)),
            (min, Val::I64(-1)),
            (Val::I64(-7), Val::I64(2)),
            (Val::I64(7), Val::I64(-2)),
            (Val::I64(7), Val::Bool(false)),
            (min, Val::I64(1)),
        ] {
            for as_var in [false, true] {
                let mut vals = TAME_VALS;
                let ea = leaf(a, 4, as_var, &mut vals);
                let eb = leaf(
                    b,
                    if b.ty() == ElemType::Bool { 7 } else { 5 },
                    as_var,
                    &mut vals,
                );
                push(bin(op, ea, eb), vals, &mut out);
            }
        }
        // select(b ≠ 0, a / b, -1) with b = 0: the quotient is not evaluated.
        let mut vals = TAME_VALS;
        vals[5] = Val::I64(0);
        let guarded = select(
            bin(BinOp::Ne, E::Var(5), int(0)),
            bin(op, E::Var(4), E::Var(5)),
            int(-1),
        );
        push(guarded, vals, &mut out);
    }

    // `select`: conditions of both accepted types, branches of one type
    // and of two, nested.
    for (k, cond) in [
        E::Var(6),
        E::Var(7),
        E::Var(4),
        int(0),
        bin(BinOp::Lt, E::Var(0), E::Var(2)),
        bin(BinOp::And, E::Var(6), E::Var(7)),
        un(UnOp::Not, E::Var(7)),
        bin(
            BinOp::Eq,
            E::Const(Val::F32(f32::NAN)),
            E::Const(Val::F32(f32::NAN)),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let pairs = [
            (E::Var(0), E::Var(1)),
            (E::Var(4), E::Var(2)),
            (E::Var(6), int(5)),
            (
                select(E::Var(7), E::Var(3), E::Var(5)),
                bin(BinOp::Mul, E::Var(0), int(2)),
            ),
        ];
        for (t, f) in pairs.into_iter().skip(k % 2).step_by(2) {
            push(select(cond.clone(), t, f), TAME_VALS, &mut out);
        }
    }

    // `size`: polynomials over integer and boolean variables; one over a
    // float variable, which has no size.
    for (terms, k) in [
        (vec![(1, vec![4])], 3),
        (vec![(2, vec![4, 5])], -1),
        (vec![(1, vec![4, 4]), (-3, vec![5])], 0),
        (vec![(1, vec![6]), (1, vec![7])], 1),
        (vec![], 42),
        (vec![(1, vec![0])], 0),
    ] {
        push(E::Size(terms.clone(), k), TAME_VALS, &mut out);
        push(
            bin(BinOp::Mul, E::Size(terms, k), E::Var(1)),
            TAME_VALS,
            &mut out,
        );
    }

    // In-range indexing (out of range is the bounds regression's), alone
    // and as an operand.
    for _ in 0..16 {
        let e = index(&mut r, &TAME_VALS);
        push(e, TAME_VALS, &mut out);
        let e = bin(
            BIN_OPS[r.usize_in(11)],
            index(&mut r, &TAME_VALS),
            index(&mut r, &TAME_VALS),
        );
        push(e, TAME_VALS, &mut out);
    }

    // Seeded mixed-type trees.
    for _ in 0..120 {
        let e = tame(&mut r, 3);
        push(e, TAME_VALS, &mut out);
    }
    // A float → integer cast at the root only.
    for _ in 0..12 {
        let e = un(UnOp::ToI64, tame(&mut r, 2));
        push(e, TAME_VALS, &mut out);
    }
    out
}

#[test]
fn scalar_results_match_the_golden_file() {
    let cases = cases();
    assert!(cases.len() >= 400, "{} expressions", cases.len());
    let mut got = String::new();
    for (id, case) in cases.iter().enumerate() {
        writeln!(
            got,
            "{id:04} {} as {:?}",
            show(&case.exp, &case.vals),
            case.declared
        )
        .unwrap();
        for cx in [Context::Top, Context::Lambda, Context::Update] {
            let tag = format!("{cx:?}").to_lowercase();
            let line = evaluate(case, id, cx);
            if let Context::Update = cx {
                let in_loop = evaluate(case, id, Context::Loop);
                assert_eq!(in_loop, line, "{id:04}: the update in a one-trip loop");
            }
            writeln!(got, "  {tag:<6} {line}").unwrap();
        }
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/snapshots/scalar_semantics.txt");
    if std::env::var_os("ARRAYMEM_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); run with ARRAYMEM_BLESS=1 to create it")
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "scalar semantics drifted from {path:?} at line {}:\n got: {:?}\nwant: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
