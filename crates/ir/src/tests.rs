use crate::alias::aliases;
use crate::builder::Builder;
use crate::exp::*;
use crate::lastuse::used_after;
use crate::types::{ElemType, Type};
use crate::validate::{lmad_slice_is_injective, validate};
use arraymem_lmad::{ConcreteLmad, Dim, Lmad, Transform, TripletSlice};
use arraymem_symbolic::Poly;
use std::collections::HashSet;

fn p(v: Var) -> Poly {
    Poly::var(v)
}

/// The Fig. 1 (left) program: add to each diagonal element the
/// corresponding element of the first row, via two parallel operations.
pub fn fig1_left_program() -> Program {
    let mut b = Builder::new("diag_plus_first_row");
    let n = b.scalar_param("n", ElemType::I64);
    let a = b.array_param("A", ElemType::F32, vec![p(n) * p(n)]);
    let mut body = b.block();
    // diag = A[0 : n : n+1], row = A[0 : n : 1]
    let diag = body.slice(
        "diag",
        a,
        Transform::LmadSlice(Lmad::new(
            0,
            vec![arraymem_lmad::Dim::new(p(n), p(n) + Poly::constant(1))],
        )),
    );
    let row = body.slice(
        "row",
        a,
        Transform::LmadSlice(Lmad::new(0, vec![arraymem_lmad::Dim::new(p(n), 1)])),
    );
    let x = body.map_lambda("X", p(n), vec![diag, row], ElemType::F32, |lb, ps| {
        let s = lb.scalar(
            "s",
            ElemType::F32,
            ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::var(ps[1])),
        );
        vec![s]
    });
    let a2 = body.update_lmad(
        "A2",
        a,
        Lmad::new(
            0,
            vec![arraymem_lmad::Dim::new(p(n), p(n) + Poly::constant(1))],
        ),
        x,
    );
    let blk = body.finish(vec![a2]);
    b.finish(blk)
}

#[test]
fn fig1_program_validates() {
    let prog = fig1_left_program();
    validate(&prog).unwrap();
    let text = crate::pretty::program_to_string(&prog);
    assert!(text.contains("with ["));
    assert!(text.contains("map"));
}

#[test]
fn validation_catches_undefined_vars() {
    let mut b = Builder::new("bad");
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let ghost = arraymem_symbolic::Sym::fresh("ghost");
    let x = body.bind(
        "x",
        crate::types::Type::array(ElemType::F32, vec![p(n)]),
        Exp::Copy(ghost),
    );
    let blk = body.finish(vec![x]);
    let prog = b.finish(blk);
    assert!(validate(&prog).is_err());
}

#[test]
fn validation_catches_consumed_reuse() {
    let mut b = Builder::new("consumed");
    let n = b.scalar_param("n", ElemType::I64);
    let a = b.array_param("A", ElemType::F32, vec![p(n)]);
    let mut body = b.block();
    let _a2 = body.update_scalar("A2", a, vec![ScalarExp::i64(0)], ScalarExp::f32(1.0));
    // Illegal: `a` is consumed by the update but copied afterwards.
    let c = body.copy("c", a);
    let blk = body.finish(vec![c]);
    let prog = b.finish(blk);
    assert!(validate(&prog).is_err());
}

#[test]
fn alias_classes_follow_transforms_and_updates() {
    let prog = fig1_left_program();
    let am = aliases(&prog);
    let a = prog.params[1].0;
    // diag and row alias A; X (map result) is fresh; A2 aliases A.
    let diag = prog.body.stms[0].pat[0].var;
    let row = prog.body.stms[1].pat[0].var;
    let x = prog.body.stms[2].pat[0].var;
    let a2 = prog.body.stms[3].pat[0].var;
    assert!(am.same_class(a, diag));
    assert!(am.same_class(a, row));
    assert!(am.same_class(a, a2));
    assert!(!am.same_class(a, x));
}

#[test]
fn last_use_of_map_result_is_the_update() {
    let prog = fig1_left_program();
    let am = aliases(&prog);
    let x = prog.body.stms[2].pat[0].var;
    // X's class is lastly used at stm 3 (the update).
    assert!(used_after(&prog.body, 2, x, &HashSet::new(), &am));
    assert!(!used_after(&prog.body, 3, x, &HashSet::new(), &am));
    // A's class escapes via the block result (A2): used after every stm.
    let a = prog.params[1].0;
    assert!((0..prog.body.stms.len()).all(|k| used_after(&prog.body, k, a, &HashSet::new(), &am)));
}

#[test]
fn loop_aliases_merge_params() {
    let mut b = Builder::new("loop_alias");
    let n = b.scalar_param("n", ElemType::I64);
    let a0 = b.array_param("A0", ElemType::F32, vec![p(n)]);
    let mut body = b.block();
    let param = body.loop_param("A", a0);
    let i = body.loop_index("i");
    let mut lb = b.block();
    let a_next = lb.update_scalar("A'", param, vec![ScalarExp::var(i)], ScalarExp::f32(0.0));
    let loop_body = lb.finish(vec![a_next]);
    let res = body.loop_(
        vec!["Afinal"],
        vec![(param, b.ty(a0))],
        vec![a0],
        i,
        p(n),
        loop_body,
    );
    let blk = body.finish(vec![res[0]]);
    let prog = b.finish(blk);
    validate(&prog).unwrap();
    let am = aliases(&prog);
    assert!(am.same_class(a0, res[0]));
}

#[test]
fn free_vars_capture_nested_blocks() {
    let prog = fig1_left_program();
    // The update's free vars include both A and X.
    let fv = prog.body.stms[3].exp.free_vars();
    let a = prog.params[1].0;
    let x = prog.body.stms[2].pat[0].var;
    assert!(fv.contains(&a));
    assert!(fv.contains(&x));
    // Block free vars = parameters only.
    let bfv = prog.body.free_vars();
    for v in bfv {
        assert!(prog.params.iter().any(|(pv, _)| *pv == v), "{v} leaked");
    }
}

#[test]
fn injectivity_dynamic_check() {
    // Diagonal of a 4x4: offsets 0,5,10,15 — injective.
    let diag = ConcreteLmad {
        offset: 0,
        dims: vec![Dim { card: 4, stride: 5 }],
    };
    assert!(lmad_slice_is_injective(&diag));
    // Overlapping: stride 1 with card 4 and stride 2 with card 4.
    let bad = ConcreteLmad {
        offset: 0,
        dims: vec![Dim { card: 4, stride: 2 }, Dim { card: 4, stride: 1 }],
    };
    assert!(!lmad_slice_is_injective(&bad));
    // Zero stride is rejected outright.
    let zero = ConcreteLmad {
        offset: 3,
        dims: vec![Dim { card: 4, stride: 0 }],
    };
    assert!(!lmad_slice_is_injective(&zero));
    // Non-obvious but injective (fails the sufficient check, passes the
    // exact fallback): strides 3 and 4 with cards 2 — {0,3,4,7}.
    let odd = ConcreteLmad {
        offset: 0,
        dims: vec![Dim { card: 2, stride: 3 }, Dim { card: 2, stride: 4 }],
    };
    assert!(lmad_slice_is_injective(&odd));
}

#[test]
fn slice_spec_free_vars() {
    let mut out = Vec::new();
    let v = arraymem_symbolic::sym("slice_n");
    SliceSpec::Triplet(vec![TripletSlice::range(
        Poly::var(v),
        Poly::constant(3),
        Poly::constant(1),
    )])
    .free_vars(&mut out);
    assert!(out.contains(&v));
}

/// The one traversal: an `if` inside a `loop` inside a lambda `map` is
/// visited in pre-order, merge parameters are among what the loop binds,
/// and the loop index is bounded inside the body only.
#[test]
fn deep_walk_is_preorder_binds_merge_params_and_scopes_the_loop_index() {
    use arraymem_symbolic::Env;
    let mut b = Builder::new("walk");
    let n = b.scalar_param("n", ElemType::I64);
    let xs = b.array_param("xs", ElemType::I64, vec![p(n)]);
    let mut body = b.block();
    let mut acc_param = None;
    let mut index = None;
    let ys = body.map_lambda("ys", p(n), vec![xs], ElemType::I64, |lb, ps| {
        let zero = lb.scalar("zero", ElemType::I64, ScalarExp::i64(0));
        let acc = lb.loop_param("acc", zero);
        let i = lb.loop_index("i");
        (acc_param, index) = (Some(acc), Some(i));
        let mut loop_b = b.block();
        let mut then_b = b.block();
        let t = then_b.scalar("t", ElemType::I64, ScalarExp::var(ps[0]));
        let mut else_b = b.block();
        let e = else_b.scalar("e", ElemType::I64, ScalarExp::var(acc));
        let picked = loop_b.if_(
            vec!["picked"],
            vec![Type::Scalar(ElemType::I64)],
            ScalarExp::bin(BinOp::Lt, ScalarExp::var(i), ScalarExp::var(ps[0])),
            then_b.finish(vec![t]),
            else_b.finish(vec![e]),
        );
        let after = loop_b.scalar("after", ElemType::I64, ScalarExp::var(picked[0]));
        lb.loop_(
            vec!["out"],
            vec![(acc, Type::Scalar(ElemType::I64))],
            vec![zero],
            i,
            p(n),
            loop_b.finish(vec![after]),
        )
    });
    let last = body.copy("last", ys);
    let prog = b.finish(body.finish(vec![last]));
    validate(&prog).unwrap();
    let (acc, i) = (acc_param.unwrap(), index.unwrap());

    let name = |v: Var| crate::pretty::scrub_uniques(&format!("{v}"));
    let mut order = Vec::new();
    prog.body
        .for_each_stm(&mut |stm| order.push(name(stm.pat[0].var)));
    assert_eq!(
        order,
        ["ys", "zero", "out", "picked", "t", "e", "after", "last"]
    );

    let top = Env::new();
    let upper = p(n) - Poly::constant(1);
    let mut bounded = Vec::new();
    prog.body.for_each_stm_in(&top, &mut |stm, env| {
        if env.prove_nonneg(&p(i)) && env.prove_le(&p(i), &upper) {
            bounded.push(name(stm.pat[0].var));
        }
        let binds: Vec<Var> = stm.bound().map(|pe| pe.var).collect();
        let is_loop = matches!(stm.exp, Exp::Loop { .. });
        assert_eq!(binds.contains(&acc), is_loop, "{binds:?}");
        let nested = match stm.exp {
            Exp::If { .. } => 2,
            Exp::Loop { .. } | Exp::Map(_) => 1,
            _ => 0,
        };
        assert_eq!(stm.exp.blocks().count(), nested);
    });
    assert_eq!(bounded, ["picked", "t", "e", "after"]);
    assert!(!top.prove_nonneg(&p(i)));

    // The mutable walk reaches the same statements.
    let mut prog = prog;
    let mut seen = 0;
    prog.body.for_each_stm_in_mut(&top, &mut |stm, _| {
        seen += 1;
        for pe in stm.bound_mut() {
            pe.mem = None;
        }
    });
    assert_eq!(seen, order.len());
}

/// A loop whose body yields, for an array merge parameter, a mem variable
/// other than the block the yielded array lives in: `validate_memory`
/// rejects it and names both blocks; yielding the array's own block is
/// accepted.
#[test]
fn loop_must_yield_the_block_its_array_lives_in() {
    use crate::validate::validate_memory;
    use arraymem_lmad::IndexFn;
    use arraymem_symbolic::sym;
    let (n, blk_a, blk_b, m, out_m) = (
        sym("lm_n"),
        sym("lm_A"),
        sym("lm_B"),
        sym("lm_m"),
        sym("lm_om"),
    );
    let (x, y, p_arr, out, i) = (
        sym("lm_x"),
        sym("lm_y"),
        sym("lm_p"),
        sym("lm_out"),
        sym("lm_i"),
    );
    let arr = |v: Var, block: Var| PatElem {
        var: v,
        ty: Type::array(ElemType::F32, vec![p(n)]),
        mem: Some(MemBinding {
            block,
            ixfn: IndexFn::row_major(&[p(n)]),
        }),
    };
    let stm = |pat: Vec<PatElem>, exp: Exp| Stm { pat, exp };
    let alloc = || Exp::Alloc {
        elem: ElemType::F32,
        size: p(n),
    };
    let scratch = || Exp::Scratch {
        elem: ElemType::F32,
        shape: vec![p(n)],
    };
    let program = |yielded_block: Var| Program {
        name: "loop_mem".into(),
        params: vec![(n, Type::Scalar(ElemType::I64))],
        pipeline_fingerprint: 0,
        body: Block {
            stms: vec![
                stm(vec![PatElem::new(blk_a, Type::Mem)], alloc()),
                stm(vec![PatElem::new(blk_b, Type::Mem)], alloc()),
                stm(vec![arr(x, blk_a)], scratch()),
                stm(vec![arr(y, blk_b)], scratch()),
                stm(
                    vec![PatElem::new(out_m, Type::Mem), arr(out, out_m)],
                    Exp::Loop {
                        params: vec![PatElem::new(m, Type::Mem), arr(p_arr, m)],
                        inits: vec![blk_a, x],
                        index: i,
                        count: p(n),
                        // The body yields `y`, which lives in B.
                        body: Block {
                            stms: vec![],
                            result: vec![yielded_block, y],
                        },
                    },
                ),
            ],
            result: vec![out],
        },
    };
    let err = validate_memory(&program(m)).expect_err("names the wrong block");
    assert!(err.contains("lm_B") && err.contains("lm_m"), "{err}");
    validate_memory(&program(blk_b)).expect("yields the array's own block");
}
