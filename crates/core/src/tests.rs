//! Pipeline tests, organized around the paper's figures: each of Figs.
//! 1, 4a, 4b, 5a, 5b, 6a is built as an IR program and the
//! short-circuiting analysis must succeed/fail exactly as the paper says.

use crate::{compile, Options};
use arraymem_ir::{
    Block, Builder, ElemType, Exp, MapBody, Program, ScalarExp, SliceSpec, Stm, Type, Var,
};
use arraymem_lmad::{Dim, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{Env, Poly};

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

fn base_env(pairs: &[(Var, i64)]) -> Env {
    let mut env = Env::new();
    for &(v, lo) in pairs {
        env.assume_ge(v, lo);
    }
    env
}

fn compile_both(prog: &Program, env: Env) -> (crate::Compiled, crate::Compiled) {
    let unopt = compile(prog, &Options::default().with_env(env.clone())).expect("unopt compile");
    let opt = compile(prog, &Options::optimized().with_env(env)).expect("opt compile");
    (unopt, opt)
}

/// Find an update statement (recursively) and report its elision flag.
fn find_update_elided(block: &Block) -> Option<bool> {
    for stm in &block.stms {
        match &stm.exp {
            Exp::Update { elided, .. } => return Some(*elided),
            Exp::Loop { body, .. } => {
                if let Some(e) = find_update_elided(body) {
                    return Some(e);
                }
            }
            Exp::If { then_b, else_b, .. } => {
                if let Some(e) = find_update_elided(then_b).or(find_update_elided(else_b)) {
                    return Some(e);
                }
            }
            _ => {}
        }
    }
    None
}

fn find_concat_elided(block: &Block) -> Option<Vec<bool>> {
    for stm in &block.stms {
        match &stm.exp {
            Exp::Concat { elided, .. } => return Some(elided.clone()),
            Exp::Loop { body, .. } => {
                if let Some(e) = find_concat_elided(body) {
                    return Some(e);
                }
            }
            Exp::If { then_b, else_b, .. } => {
                if let Some(e) = find_concat_elided(then_b).or(find_concat_elided(else_b)) {
                    return Some(e);
                }
            }
            _ => {}
        }
    }
    None
}

fn count_allocs(block: &Block) -> usize {
    let mut n = 0;
    for stm in &block.stms {
        match &stm.exp {
            Exp::Alloc { .. } => n += 1,
            Exp::Loop { body, .. } => n += count_allocs(body),
            Exp::If { then_b, else_b, .. } => n += count_allocs(then_b) + count_allocs(else_b),
            _ => {}
        }
    }
    n
}

/// Fig. 1 (left): add to each diagonal element the corresponding element
/// of the first row; the update *can* be short-circuited.
fn fig1_left() -> (Program, Env) {
    let mut b = Builder::new("fig1_left");
    let n = b.scalar_param("n", ElemType::I64);
    let a = b.array_param("A", ElemType::F32, vec![p(n) * p(n)]);
    let mut body = b.block();
    let diag_lmad = Lmad::new(0, vec![Dim::new(p(n), p(n) + c(1))]);
    let diag = body.slice("diag", a, Transform::LmadSlice(diag_lmad.clone()));
    let row = body.slice(
        "row",
        a,
        Transform::LmadSlice(Lmad::new(0, vec![Dim::new(p(n), 1)])),
    );
    let x = body.map_lambda("X", p(n), vec![diag, row], ElemType::F32, |lb, ps| {
        let s = lb.scalar(
            "s",
            ElemType::F32,
            ScalarExp::bin(
                arraymem_ir::BinOp::Add,
                ScalarExp::var(ps[0]),
                ScalarExp::var(ps[1]),
            ),
        );
        vec![s]
    });
    let a2 = body.update("A2", a, SliceSpec::Lmad(diag_lmad), x);
    let blk = body.finish(vec![a2]);
    let env = base_env(&[(n, 1)]);
    (b.finish(blk), env)
}

/// Fig. 1 (right): add to each diagonal element the diagonal element at
/// position `js[i]` — the kernel reads `A` arbitrarily, so the update
/// must NOT be short-circuited (WAR hazards).
fn fig1_right() -> (Program, Env) {
    let mut b = Builder::new("fig1_right");
    let n = b.scalar_param("n", ElemType::I64);
    let a = b.array_param("A", ElemType::F32, vec![p(n) * p(n)]);
    let js = b.array_param("js", ElemType::I64, vec![p(n)]);
    let mut body = b.block();
    let diag_lmad = Lmad::new(0, vec![Dim::new(p(n), p(n) + c(1))]);
    let diag = body.slice("diag", a, Transform::LmadSlice(diag_lmad.clone()));
    // X[i] = diag[i] + A[js[i]*n + js[i]]: A is read at data-dependent
    // locations, so it must be declared a whole-input.
    let x = body.map_kernel_acc(
        "X",
        "diag_gather",
        p(n),
        vec![],
        ElemType::F32,
        vec![diag, js, a],
        vec![ScalarExp::var(n)],
        vec![2],
    );
    let a2 = body.update("A2", a, SliceSpec::Lmad(diag_lmad), x);
    let blk = body.finish(vec![a2]);
    let env = base_env(&[(n, 1)]);
    (b.finish(blk), env)
}

#[test]
fn fig1_left_short_circuits() {
    let (prog, env) = fig1_left();
    let (unopt, opt) = compile_both(&prog, env);
    assert_eq!(find_update_elided(&unopt.program.body), Some(false));
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(true),
        "fig1-left update should be elided; report: {:?}",
        opt.report.candidates
    );
    assert_eq!(opt.report.successes(), 1);
    // X's alloc is gone: the map writes straight into A's memory.
    assert!(count_allocs(&opt.program.body) < count_allocs(&unopt.program.body));
}

#[test]
fn fig1_right_fails_conservatively() {
    let (prog, env) = fig1_right();
    let (_, opt) = compile_both(&prog, env);
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(false),
        "fig1-right must NOT be elided; report: {:?}",
        opt.report.candidates
    );
    assert_eq!(opt.report.successes(), 0);
    assert!(opt.report.candidates[0]
        .reason
        .contains("overlaps the rebased write region"));
}

/// Fig. 4a: `xss = concat as bs` where both are fresh and lastly used —
/// both copies elided, concat becomes a no-op.
fn fig4a() -> (Program, Env) {
    let mut b = Builder::new("fig4a");
    let m = b.scalar_param("m", ElemType::I64);
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let asv = b.block(); // placate clippy; use body only
    drop(asv);
    let a = body.replicate("as", vec![p(m)], ScalarExp::f32(1.0));
    let bs = body.replicate("bs", vec![p(n)], ScalarExp::f32(2.0));
    let xss = body.concat("xss", vec![a, bs]);
    let blk = body.finish(vec![xss]);
    (b.finish(blk), base_env(&[(m, 1), (n, 1)]))
}

#[test]
fn fig4a_concat_elides_both_arguments() {
    let (prog, env) = fig4a();
    let (unopt, opt) = compile_both(&prog, env);
    assert_eq!(
        find_concat_elided(&unopt.program.body),
        Some(vec![false, false])
    );
    assert_eq!(
        find_concat_elided(&opt.program.body),
        Some(vec![true, true]),
        "report: {:?}",
        opt.report.candidates
    );
    assert_eq!(opt.report.successes(), 2);
    // Only xss's allocation remains.
    assert_eq!(count_allocs(&opt.program.body), 1);
}

/// Footnote 17: `concat bs bs` — only one of the two uses can be a last
/// use, so at most one argument is elided.
#[test]
fn concat_same_array_twice_elides_at_most_one() {
    let mut b = Builder::new("concat_twice");
    let n = b.scalar_param("ctn", ElemType::I64);
    let mut body = b.block();
    let bs = body.replicate("bs", vec![p(n)], ScalarExp::f32(1.0));
    let xss = body.concat("xss", vec![bs, bs]);
    let blk = body.finish(vec![xss]);
    let prog = b.finish(blk);
    let (_, opt) = compile_both(&prog, base_env(&[(n, 1)]));
    let elided = find_concat_elided(&opt.program.body).unwrap();
    assert!(
        elided.iter().filter(|&&e| e).count() <= 1,
        "at most one copy of a twice-used array can be elided: {elided:?}"
    );
}

/// Fig. 4b essentials: `bs` is a change-of-layout of fresh `as`, and an
/// alias `cs` derived from `bs` is used before the circuit point. The
/// whole web (as, bs, cs) must be rebased.
fn fig4b() -> (Program, Env) {
    let mut b = Builder::new("fig4b");
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let xss = body.replicate("xss", vec![p(n) * c(2)], ScalarExp::f32(0.0));
    let a = body.replicate("as", vec![p(n)], ScalarExp::f32(1.0));
    // bs = reverse as (invertible change of layout)
    let bs = body.transform("bs", a, Transform::Reverse(0));
    // cs = another view of bs, used by a scalar read below.
    let cs = body.transform("cs", bs, Transform::Reverse(0));
    let _peek = body.scalar(
        "peek",
        ElemType::F32,
        ScalarExp::Index(cs, vec![ScalarExp::i64(0)]),
    );
    // xss[0 : n] = bs
    let x2 = body.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(c(0), p(n), c(1))]),
        bs,
    );
    let blk = body.finish(vec![x2]);
    (b.finish(blk), base_env(&[(n, 1)]))
}

#[test]
fn fig4b_rebases_the_whole_alias_web() {
    let (prog, env) = fig4b();
    let (_, opt) = compile_both(&prog, env);
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(true),
        "report: {:?}",
        opt.report.candidates
    );
    // as, bs and cs must all reside in xss's memory now.
    let bindings: std::collections::HashMap<Var, arraymem_ir::MemBinding> =
        crate::MemTable::build(&opt.program)
            .iter()
            .map(|(v, mb)| (v, mb.clone()))
            .collect();
    let names: std::collections::HashMap<String, Var> = bindings
        .keys()
        .map(|v| (format!("{v}").split('#').next().unwrap().to_string(), *v))
        .collect();
    let xss_block = bindings[&names["xss"]].block;
    for nm in ["as", "bs", "cs"] {
        assert_eq!(
            bindings[&names[nm]].block, xss_block,
            "{nm} not rebased into xss's memory"
        );
    }
    // `as` got the *reversed* region of xss[0:n].
    let as_ix = &bindings[&names["as"]].ixfn;
    let l = as_ix.as_single().unwrap();
    assert_eq!(l.dims.len(), 1);
    assert_eq!(l.dims[0].stride, c(-1));
}

/// A use of the destination's memory *between* the web's creation and the
/// circuit point that overlaps the written region must defeat the
/// optimization (safety property 4).
#[test]
fn overlapping_destination_use_defeats_circuit() {
    let mut b = Builder::new("unsafe_use");
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let xss = body.replicate("xss", vec![p(n) * c(2)], ScalarExp::f32(0.0));
    let bs = body.replicate("bs", vec![p(n)], ScalarExp::f32(1.0));
    // Read xss[0] — inside the region bs would be rebased into.
    let _r = body.scalar(
        "r",
        ElemType::F32,
        ScalarExp::Index(xss, vec![ScalarExp::i64(0)]),
    );
    let x2 = body.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(c(0), p(n), c(1))]),
        bs,
    );
    let blk = body.finish(vec![x2]);
    let prog = b.finish(blk);
    let (_, opt) = compile_both(&prog, base_env(&[(n, 1)]));
    assert_eq!(find_update_elided(&opt.program.body), Some(false));
    assert_eq!(opt.report.successes(), 0);
}

/// A *disjoint* use of the destination memory is fine (fig. 4b line 2
/// analogue): reading the other half of xss does not defeat the circuit.
#[test]
fn disjoint_destination_use_is_allowed() {
    let mut b = Builder::new("safe_use");
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let xss = body.replicate("xss", vec![p(n) * c(2)], ScalarExp::f32(0.0));
    let bs = body.replicate("bs", vec![p(n)], ScalarExp::f32(1.0));
    // Read xss[n + {(n:1)}] — the half NOT written by the circuit.
    let other = body.slice(
        "other",
        xss,
        Transform::LmadSlice(Lmad::new(p(n), vec![Dim::new(p(n), 1)])),
    );
    let _sum = body.map_lambda("sums", p(n), vec![other], ElemType::F32, |lb, ps| {
        let s = lb.scalar("s", ElemType::F32, ScalarExp::var(ps[0]));
        vec![s]
    });
    let x2 = body.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(c(0), p(n), c(1))]),
        bs,
    );
    let blk = body.finish(vec![x2]);
    let prog = b.finish(blk);
    let (_, opt) = compile_both(&prog, base_env(&[(n, 1)]));
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(true),
        "report: {:?}",
        opt.report.candidates
    );
}

/// Fig. 5a: the circuited array is produced by an `if`; both branches'
/// results must be constructible in the destination memory.
fn fig5a() -> (Program, Env) {
    let mut b = Builder::new("fig5a");
    let n = b.scalar_param("n", ElemType::I64);
    let cflag = b.scalar_param("cond", ElemType::Bool);
    let mut body = b.block();
    let xss = body.replicate("xss", vec![p(n) * c(2)], ScalarExp::f32(0.0));
    // bs = if cond then replicate 1.0 else replicate 2.0
    let mut tb = b.block();
    let bst = tb.replicate("bs_then", vec![p(n)], ScalarExp::f32(1.0));
    let then_b = tb.finish(vec![bst]);
    let mut eb = b.block();
    let bse = eb.replicate("bs_else", vec![p(n)], ScalarExp::f32(2.0));
    let else_b = eb.finish(vec![bse]);
    let bs = body.if_(
        vec!["bs"],
        vec![Type::array(ElemType::F32, vec![p(n)])],
        ScalarExp::var(cflag),
        then_b,
        else_b,
    )[0];
    let x2 = body.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(p(n), p(n), c(1))]),
        bs,
    );
    let blk = body.finish(vec![x2]);
    (b.finish(blk), base_env(&[(n, 1)]))
}

#[test]
fn fig5a_circuits_through_if() {
    let (prog, env) = fig5a();
    let (_, opt) = compile_both(&prog, env);
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(true),
        "report: {:?}",
        opt.report.candidates
    );
    assert_eq!(opt.report.successes(), 1);
}

/// Fig. 5b: the circuited array is produced by a loop; the body result,
/// the merge parameter and the initializer all land in the destination.
fn fig5b() -> (Program, Env) {
    let mut b = Builder::new("fig5b");
    let n = b.scalar_param("n", ElemType::I64);
    let k = b.scalar_param("k", ElemType::I64);
    let mut body = b.block();
    let xss = body.replicate("xss", vec![p(n) * c(2)], ScalarExp::f32(0.0));
    let as0 = body.replicate("as0", vec![p(n)], ScalarExp::f32(1.0));
    let param = body.loop_param("as", as0);
    let idx = body.loop_index("i");
    let mut lb = b.block();
    // bs' = map (λx → x * 2) as   (fresh each iteration)
    let bsp = lb.map_lambda("bs'", p(n), vec![param], ElemType::F32, |ib, ps| {
        let s = ib.scalar(
            "t",
            ElemType::F32,
            ScalarExp::bin(
                arraymem_ir::BinOp::Mul,
                ScalarExp::var(ps[0]),
                ScalarExp::f32(2.0),
            ),
        );
        vec![s]
    });
    let loop_body = lb.finish(vec![bsp]);
    let bs = body.loop_(
        vec!["bs"],
        vec![(param, b.ty(as0))],
        vec![as0],
        idx,
        p(k),
        loop_body,
    )[0];
    let x2 = body.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(p(n), p(n), c(1))]),
        bs,
    );
    let blk = body.finish(vec![x2]);
    (b.finish(blk), base_env(&[(n, 1), (k, 1)]))
}

#[test]
fn fig5b_circuits_through_loop() {
    let (prog, env) = fig5b();
    let (_, opt) = compile_both(&prog, env);
    let elided = find_update_elided(&opt.program.body);
    assert_eq!(elided, Some(true), "report: {:?}", opt.report.candidates);
}

/// Fig. 5b's counter-example (footnote 23): an iterative stencil — the
/// body reads the merge parameter *after* the fresh result is created —
/// must NOT circuit (values of iteration i-1 would be clobbered).
#[test]
fn loop_with_param_use_after_def_fails() {
    let mut b = Builder::new("stencilish");
    let n = b.scalar_param("n", ElemType::I64);
    let k = b.scalar_param("k", ElemType::I64);
    let mut body = b.block();
    let xss = body.replicate("xss", vec![p(n) * c(2)], ScalarExp::f32(0.0));
    let as0 = body.replicate("as0", vec![p(n)], ScalarExp::f32(1.0));
    let param = body.loop_param("as", as0);
    let idx = body.loop_index("i");
    let mut lb = b.block();
    let bsp = lb.map_lambda("bs'", p(n), vec![param], ElemType::F32, |ib, ps| {
        let s = ib.scalar("t", ElemType::F32, ScalarExp::var(ps[0]));
        vec![s]
    });
    // A later use of the merge parameter (after bs' is created).
    let _late = lb.scalar(
        "late",
        ElemType::F32,
        ScalarExp::Index(param, vec![ScalarExp::i64(0)]),
    );
    let loop_body = lb.finish(vec![bsp]);
    let bs = body.loop_(
        vec!["bs"],
        vec![(param, b.ty(as0))],
        vec![as0],
        idx,
        p(k),
        loop_body,
    )[0];
    let x2 = body.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(p(n), p(n), c(1))]),
        bs,
    );
    let blk = body.finish(vec![x2]);
    let prog = b.finish(blk);
    let (_, opt) = compile_both(&prog, base_env(&[(n, 1), (k, 1)]));
    assert_eq!(find_update_elided(&opt.program.body), Some(false));
}

/// Fig. 6a: transitive chaining — as and bs circuit into cs (a concat),
/// which itself circuits into yss.
fn fig6a() -> (Program, Env) {
    let mut b = Builder::new("fig6a");
    let n = b.scalar_param("n", ElemType::I64);
    let i = b.scalar_param("i", ElemType::I64);
    let mut body = b.block();
    let yss = body.replicate("yss", vec![p(n), p(n) * c(2)], ScalarExp::f32(0.0));
    let a = body.replicate("as", vec![p(n)], ScalarExp::f32(1.0));
    let bs = body.replicate("bs", vec![p(n)], ScalarExp::f32(2.0));
    let cs = body.concat("cs", vec![a, bs]);
    let y2 = body.update(
        "yss2",
        yss,
        SliceSpec::Triplet(vec![
            TripletSlice::Fix(p(i)),
            TripletSlice::range(c(0), p(n) * c(2), c(1)),
        ]),
        cs,
    );
    let blk = body.finish(vec![y2]);
    let mut env = base_env(&[(n, 1), (i, 0)]);
    env.assume_le(i, p(n) - c(1));
    (b.finish(blk), env)
}

#[test]
fn fig6a_transitive_chaining() {
    let (prog, env) = fig6a();
    let (unopt, opt) = compile_both(&prog, env);
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(true),
        "report: {:?}",
        opt.report.candidates
    );
    assert_eq!(
        find_concat_elided(&opt.program.body),
        Some(vec![true, true]),
        "report: {:?}",
        opt.report.candidates
    );
    // All three candidates (cs into yss; as and bs into cs-in-yss).
    assert_eq!(opt.report.successes(), 3);
    // Paper footnote 24: the rebased index functions are
    //   cs ↦ t + {(2n : 1)}, as ↦ t + {(n : 1)}, bs ↦ t + n + {(n : 1)}
    // with t = i·2n.
    let bindings: std::collections::HashMap<Var, arraymem_ir::MemBinding> =
        crate::MemTable::build(&opt.program)
            .iter()
            .map(|(v, mb)| (v, mb.clone()))
            .collect();
    let mut names: std::collections::HashMap<String, Var> = bindings
        .keys()
        .map(|v| (format!("{v}").split('#').next().unwrap().to_string(), *v))
        .collect();
    for (v, _) in &prog.params {
        names.insert(format!("{v}").split('#').next().unwrap().to_string(), *v);
    }
    let t = p(names["i"]) * p(names["n"]) * c(2);
    let bs_l = bindings[&names["bs"]].ixfn.as_single().unwrap().clone();
    assert_eq!(bs_l.offset, t.clone() + p(names["n"]));
    let as_l = bindings[&names["as"]].ixfn.as_single().unwrap().clone();
    assert_eq!(as_l.offset, t);
    // Allocations: only yss's remains.
    assert!(count_allocs(&opt.program.body) < count_allocs(&unopt.program.body));
    assert_eq!(count_allocs(&opt.program.body), 1);
}

/// The NW inner step (§III-A): LMAD-slice reads, a block kernel, and an
/// LMAD-slice update inside the anti-diagonal loop. The update must be
/// elided — this is the paper's flagship application of Fig. 9.
pub fn nw_step_program() -> (Program, Env) {
    let mut b = Builder::new("nw_step");
    let n = b.scalar_param("nwn", ElemType::I64);
    let q = b.scalar_param("nwq", ElemType::I64);
    let bsz = b.scalar_param("nwb", ElemType::I64);
    let a = b.array_param("A", ElemType::I64, vec![p(n) * p(n)]);
    let mut body = b.block();

    let param = body.loop_param("Ait", a);
    let idx = body.loop_index("i");
    let mut lb = b.block();
    // Rvert = i·b + {(i+1 : n·b − b), (b+1 : n)}
    let rvert = lb.slice(
        "Rvert",
        param,
        Transform::LmadSlice(Lmad::new(
            p(idx) * p(bsz),
            vec![
                Dim::new(p(idx) + c(1), p(n) * p(bsz) - p(bsz)),
                Dim::new(p(bsz) + c(1), p(n)),
            ],
        )),
    );
    // Rhoriz = i·b + 1 + {(i+1 : n·b − b), (b : 1)}
    let rhoriz = lb.slice(
        "Rhoriz",
        param,
        Transform::LmadSlice(Lmad::new(
            p(idx) * p(bsz) + c(1),
            vec![
                Dim::new(p(idx) + c(1), p(n) * p(bsz) - p(bsz)),
                Dim::new(p(bsz), c(1)),
            ],
        )),
    );
    // X = map2 process_block Rvert Rhoriz : one b×b block per diagonal pos.
    let x = lb.map_kernel(
        "X",
        "nw_process_block",
        p(idx) + c(1),
        vec![p(bsz), p(bsz)],
        ElemType::I64,
        vec![rvert, rhoriz],
        vec![ScalarExp::var(n), ScalarExp::var(bsz)],
    );
    // A[i·b + n + 1 + {(i+1 : nb−b), (b : n), (b : 1)}] = X
    let w = Lmad::new(
        p(idx) * p(bsz) + p(n) + c(1),
        vec![
            Dim::new(p(idx) + c(1), p(n) * p(bsz) - p(bsz)),
            Dim::new(p(bsz), p(n)),
            Dim::new(p(bsz), c(1)),
        ],
    );
    let a2 = lb.update("A2", param, SliceSpec::Lmad(w), x);
    let loop_body = lb.finish(vec![a2]);
    let afinal = body.loop_(
        vec!["Afinal"],
        vec![(param, b.ty(a))],
        vec![a],
        idx,
        p(q),
        loop_body,
    )[0];
    let blk = body.finish(vec![afinal]);

    let mut env = Env::new();
    env.define(n, p(q) * p(bsz) + c(1));
    env.assume_ge(q, 2);
    env.assume_ge(bsz, 2);
    (b.finish(blk), env)
}

#[test]
fn nw_update_is_short_circuited() {
    let (prog, env) = nw_step_program();
    let (unopt, opt) = compile_both(&prog, env);
    assert_eq!(find_update_elided(&unopt.program.body), Some(false));
    assert_eq!(
        find_update_elided(&opt.program.body),
        Some(true),
        "NW update should be elided; report: {:?}",
        opt.report.candidates
    );
    // The mapnest also constructs its blocks in place.
    assert!(opt.report.in_place_maps >= 1);
    // X's temporary allocation inside the loop is gone.
    assert!(count_allocs(&opt.program.body) < count_allocs(&unopt.program.body));
}

/// Without the `n = q·b + 1` relation the non-overlap proof cannot go
/// through, and NW must fail conservatively.
#[test]
fn nw_fails_without_assumptions() {
    let (prog, _) = nw_step_program();
    let weak = Env::new();
    let opt = compile(&prog, &Options::optimized().with_env(weak)).unwrap();
    assert_eq!(find_update_elided(&opt.program.body), Some(false));
}

#[test]
fn unopt_pipeline_introduces_memory_everywhere() {
    let (prog, env) = fig1_left();
    let unopt = compile(&prog, &Options::default().with_env(env)).unwrap();
    // Every array binding must have a memory annotation.
    fn check(block: &Block) {
        for stm in &block.stms {
            for pe in &stm.pat {
                if pe.ty.is_array() {
                    assert!(pe.mem.is_some(), "missing binding on {}", pe.var);
                }
            }
            match &stm.exp {
                Exp::Loop { body, .. } => check(body),
                Exp::If { then_b, else_b, .. } => {
                    check(then_b);
                    check(else_b);
                }
                _ => {}
            }
        }
    }
    check(&unopt.program.body);
}

#[test]
fn hoisting_moves_allocs_before_uses() {
    let (prog, env) = fig4a();
    let opt = compile(&prog, &Options::default().with_env(env)).unwrap();
    // After hoisting, all allocs precede all non-alloc statements that do
    // not define their sizes.
    let first_nonalloc = opt
        .program
        .body
        .stms
        .iter()
        .position(|s| !matches!(s.exp, Exp::Alloc { .. } | Exp::Scalar(_)))
        .unwrap();
    let last_alloc = opt
        .program
        .body
        .stms
        .iter()
        .rposition(|s| matches!(s.exp, Exp::Alloc { .. }))
        .unwrap();
    assert!(
        last_alloc < first_nonalloc,
        "allocs not hoisted: program:\n{}",
        arraymem_ir::pretty::program_to_string(&opt.program)
    );
}

/// Memory annotations are an add-on: deleting them must leave a program
/// that still validates (paper §I).
#[test]
fn memory_annotations_are_deletable() {
    let (prog, env) = fig6a();
    let opt = compile(&prog, &Options::optimized().with_env(env)).unwrap();
    let mut stripped = opt.program.clone();
    fn strip(block: &mut Block) {
        for stm in &mut block.stms {
            for pe in &mut stm.pat {
                pe.mem = None;
            }
            match &mut stm.exp {
                Exp::Loop { params, body, .. } => {
                    for pe in params.iter_mut() {
                        pe.mem = None;
                    }
                    strip(body);
                }
                Exp::If { then_b, else_b, .. } => {
                    strip(then_b);
                    strip(else_b);
                }
                Exp::Map(m) => {
                    if let MapBody::Lambda { body, .. } = &mut m.body {
                        strip(body);
                    }
                }
                _ => {}
            }
        }
    }
    strip(&mut stripped.body);
    arraymem_ir::validate::validate(&stripped).unwrap();
}

/// Mapnest rows are marked in-place by the post-pass even without a
/// circuit (fresh output memory can never alias the inputs).
#[test]
fn fresh_map_rows_are_in_place() {
    let mut b = Builder::new("fresh_map");
    let n = b.scalar_param("fm_n", ElemType::I64);
    let src = b.array_param("src", ElemType::F32, vec![p(n), c(8)]);
    let mut body = b.block();
    let out = body.map_kernel(
        "rows",
        "copy_rows",
        p(n),
        vec![c(8)],
        ElemType::F32,
        vec![src],
        vec![],
    );
    let blk = body.finish(vec![out]);
    let prog = b.finish(blk);
    let opt = compile(&prog, &Options::optimized().with_env(base_env(&[(n, 1)]))).unwrap();
    assert_eq!(opt.report.in_place_maps, 1);
    fn find_map(block: &Block) -> Option<bool> {
        for stm in &block.stms {
            if let Exp::Map(m) = &stm.exp {
                return Some(m.in_place_result);
            }
        }
        None
    }
    assert_eq!(find_map(&opt.program.body), Some(true));
}

/// The report records failures with reasons.
#[test]
fn report_has_reasons() {
    let (prog, env) = fig1_right();
    let (_, opt) = compile_both(&prog, env);
    assert_eq!(opt.report.candidates.len(), 1);
    assert!(!opt.report.candidates[0].succeeded);
    assert!(!opt.report.candidates[0].reason.is_empty());
}

// Keep Stm import used even if future edits drop other uses.
#[allow(dead_code)]
fn _touch(_: &Stm) {}

// ---------------------------------------------------------------------
// Hoisting & cleanup micro-tests
// ---------------------------------------------------------------------

#[test]
fn hoist_respects_size_dependencies() {
    // An alloc whose size depends on a computed scalar must not move
    // above that scalar's definition.
    let mut b = Builder::new("hoist_dep");
    let n = b.scalar_param("hd_n", ElemType::I64);
    let a = b.array_param("hd_A", ElemType::F32, vec![p(n)]);
    let mut body = b.block();
    let m = body.scalar(
        "m",
        ElemType::I64,
        ScalarExp::Index(a, vec![ScalarExp::i64(0)]),
    );
    // Use m in a shape: replicate [n] of value read via m is awkward; use
    // an update to keep m alive and check ordering via free vars instead.
    let r = body.replicate("r", vec![p(n)], ScalarExp::f32(1.0));
    let r2 = body.update_scalar(
        "r2",
        r,
        vec![ScalarExp::i64(0)],
        ScalarExp::un(arraymem_ir::UnOp::ToF32, ScalarExp::var(m)),
    );
    let blk = body.finish(vec![r2]);
    let prog = b.finish(blk);
    let compiled = compile(&prog, &Options::default().with_env(base_env(&[(n, 1)]))).unwrap();
    // Every statement's free vars must be defined before it (validate
    // re-checks scoping after hoisting).
    arraymem_ir::validate::validate(&compiled.program).unwrap();
}

#[test]
fn cleanup_removes_only_dead_allocs() {
    let (prog, env) = fig4a();
    let opt = compile(&prog, &Options::optimized().with_env(env)).unwrap();
    // fig4a: as/bs allocs removed, xss alloc retained.
    assert_eq!(count_allocs(&opt.program.body), 1);
    arraymem_ir::validate::validate(&opt.program).unwrap();
}

/// Disabling hoisting defeats fig4a (the concat's memory is allocated
/// after as/bs are created).
#[test]
fn ablation_hoisting_matters_for_fig4a() {
    let (prog, env) = fig4a();
    let opt = compile(
        &prog,
        &Options {
            hoist: false,
            ..Options::optimized().with_env(env)
        },
    )
    .unwrap();
    assert_eq!(opt.report.successes(), 0, "{:?}", opt.report.candidates);
}
