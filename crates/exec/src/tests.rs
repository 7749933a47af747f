//! Executor tests: the memory-semantics machine must agree with the pure
//! value-semantics interpreter on every program, with and without
//! short-circuiting — the paper's "memory annotations have no semantic
//! meaning" invariant, checked end to end.

use crate::kernel::KernelRegistry;
use crate::value::{InputValue, OutputValue};
use crate::vm::{run_program, Mode};
use arraymem_core::{compile, Options};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, SliceSpec, Type, Var};
use arraymem_lmad::{Dim, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{Env, Poly};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// `r` failed with a typed error, not a crash: the executor turns a panic
/// into `Err("execution panicked: …")`, which no test expecting a refusal
/// may accept.
fn is_refusal<T>(r: &Result<T, String>) -> bool {
    if let Err(e) = r {
        assert!(!e.contains(" panicked: "), "a crash, not a refusal: {e}");
    }
    r.is_err()
}

/// Compile a program with and without short-circuiting, run both in
/// `Memory` mode plus the source in `Pure` mode, assert all outputs agree,
/// and return (pure, unopt-stats, opt-stats).
fn run_all(
    prog: &Program,
    env: Env,
    inputs: &[InputValue],
    kernels: &KernelRegistry,
) -> (Vec<OutputValue>, crate::Stats, crate::Stats) {
    let unopt = compile(prog, &Options::default().with_env(env.clone())).expect("unopt compile");
    let opt = compile(prog, &Options::optimized().with_env(env)).expect("opt compile");
    let (pure_out, _) = run_program(prog, inputs, kernels, Mode::Pure, 1).expect("pure run");
    let (unopt_out, unopt_stats) =
        run_program(&unopt.program, inputs, kernels, Mode::Memory, 1).expect("unopt run");
    let (opt_out, opt_stats) =
        run_program(&opt.program, inputs, kernels, Mode::Memory, 1).expect("opt run");
    assert_eq!(pure_out.len(), unopt_out.len());
    for ((a, b), ch) in pure_out.iter().zip(&unopt_out).zip(&opt_out) {
        assert!(a.approx_eq(b, 1e-6), "pure vs unopt mismatch");
        assert!(a.approx_eq(ch, 1e-6), "pure vs opt mismatch");
    }
    (pure_out, unopt_stats, opt_stats)
}

/// Fig. 1 (left) with a lambda map.
fn fig1_left() -> (Program, Env) {
    let mut b = Builder::new("exec_fig1");
    let n = b.scalar_param("xn", ElemType::I64);
    let a = b.array_param("xA", ElemType::F32, vec![p(n) * p(n)]);
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
    let mut env = Env::new();
    env.assume_ge(n, 1);
    (b.finish(blk), env)
}

#[test]
fn fig1_semantics_and_copy_elision() {
    let (prog, env) = fig1_left();
    let n = 8usize;
    let a: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
    let inputs = vec![InputValue::I64(n as i64), InputValue::ArrayF32(a.clone())];
    let kernels = KernelRegistry::new();
    let (out, unopt, opt) = run_all(&prog, env, &inputs, &kernels);
    // Semantics: A[i,i] += A[0,i].
    let mut expect = a;
    for i in 0..n {
        expect[i * n + i] += expect[i];
    }
    assert_eq!(out[0].as_f32s(), &expect[..]);
    // Mechanism: the diagonal copy is gone.
    assert_eq!(unopt.bytes_copied, (n * 4) as u64);
    assert_eq!(opt.bytes_copied, 0);
    assert_eq!(opt.bytes_elided, (n * 4) as u64);
}

#[test]
fn fig4a_concat_becomes_noop() {
    let mut b = Builder::new("exec_fig4a");
    let m = b.scalar_param("cm", ElemType::I64);
    let n = b.scalar_param("cn", ElemType::I64);
    let mut body = b.block();
    let a = body.replicate("as", vec![p(m)], ScalarExp::f32(1.5));
    let bs = body.replicate("bs", vec![p(n)], ScalarExp::f32(2.5));
    let xss = body.concat("xss", vec![a, bs]);
    let blk = body.finish(vec![xss]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(m, 1);
    env.assume_ge(n, 1);
    let inputs = vec![InputValue::I64(5), InputValue::I64(3)];
    let kernels = KernelRegistry::new();
    let (out, unopt, opt) = run_all(&prog, env, &inputs, &kernels);
    let mut expect = vec![1.5f32; 5];
    expect.extend(vec![2.5f32; 3]);
    assert_eq!(out[0].as_f32s(), &expect[..]);
    assert_eq!(unopt.bytes_copied, 8 * 4);
    assert_eq!(opt.bytes_copied, 0);
    // The optimized version also allocates less (as/bs blocks are gone).
    assert!(opt.bytes_allocated < unopt.bytes_allocated);
}

/// `rev_row`: row `i` of the result is row `i` of the input reversed,
/// staged through a row buffer.
fn rev_rows(ctx: &crate::KernelCtx) {
    let mut row = vec![0f32; ctx.arg_i64(0) as usize];
    for i in ctx.rows.clone() {
        ctx.read_row(0, i, &mut row);
        row.reverse();
        ctx.write_row(i, &row);
    }
}

#[test]
fn kernel_map_rows_inplace_vs_private() {
    // A kernel that reverses each row of its input.
    let mut kernels = KernelRegistry::new();
    kernels.register("rev_row", rev_rows);
    let mut b = Builder::new("rows");
    let n = b.scalar_param("rn", ElemType::I64);
    let src = b.array_param("rsrc", ElemType::F32, vec![p(n), c(16)]);
    let mut body = b.block();
    let out = body.map_kernel(
        "revd",
        "rev_row",
        p(n),
        vec![c(16)],
        ElemType::F32,
        vec![src],
        vec![ScalarExp::i64(16)],
    );
    let blk = body.finish(vec![out]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let rows = 10usize;
    let data: Vec<f32> = (0..rows * 16).map(|i| i as f32).collect();
    let inputs = vec![
        InputValue::I64(rows as i64),
        InputValue::ArrayF32(data.clone()),
    ];
    let (out, unopt, opt) = run_all(&prog, env, &inputs, &kernels);
    let mut expect = vec![0f32; rows * 16];
    for r in 0..rows {
        for j in 0..16 {
            expect[r * 16 + j] = data[r * 16 + 15 - j];
        }
    }
    assert_eq!(out[0].as_f32s(), &expect[..]);
    // Unopt pays the mapnest's implicit per-row copy; opt does not.
    assert_eq!(unopt.bytes_copied, (rows * 16 * 4) as u64);
    assert_eq!(opt.bytes_copied, 0);
}

/// `map dbl` over `n` rows of width `w` (rank-0 rows when `w` is 0): row
/// `i` of the result is row `i` of the input reversed and doubled. The
/// kernel takes its memory as slices (it panics if a call does not
/// qualify) and counts its calls in `calls`.
///
/// Staged, the map is NW-shaped: it reads the rows of the left half of an
/// `n × 2w` matrix through a reversed view (a negative stride), and the
/// result is the matrix with its right half replaced by the map — written
/// in place when optimized, so the input and `out` are views of one block
/// and the kernel stages both through a row buffer.
fn dbl_map(w: i64, staged: bool, calls: &Arc<AtomicU64>) -> (Program, Env, KernelRegistry) {
    let mut kernels = KernelRegistry::new();
    let counter = Arc::clone(calls);
    kernels.register("dbl", move |ctx| {
        counter.fetch_add(1, Ordering::Relaxed);
        let w = ctx.arg_i64(0).max(1) as usize;
        let (src, out) = (ctx.input::<f32>(0), ctx.rows_mut());
        let (src, out) = src.zip(out).expect("dbl: rows are dense f32");
        for (i, row) in ctx.rows.clone().zip(out.chunks_exact_mut(w)) {
            let from = src[i as usize * w..][..w].iter().rev();
            for (o, x) in row.iter_mut().zip(from) {
                *o = 2.0 * x;
            }
        }
    });
    let counter = Arc::clone(calls);
    kernels.register("dbl_staged", move |ctx| {
        counter.fetch_add(1, Ordering::Relaxed);
        let mut row = vec![0f32; ctx.arg_i64(0).max(1) as usize];
        for i in ctx.rows.clone() {
            ctx.read_row(0, i, &mut row);
            row.iter_mut().for_each(|x| *x *= 2.0);
            ctx.write_row(i, &row);
        }
    });
    let mut b = Builder::new("dbl");
    let n = b.scalar_param("dn", ElemType::I64);
    let row: Vec<Poly> = if w == 0 { vec![] } else { vec![c(w)] };
    let mut body = b.block();
    let wd = w.max(1);
    let half = |offset, stride| {
        let inner = (w > 0).then(|| Dim::new(c(w), c(stride)));
        let dims = std::iter::once(Dim::new(p(n), c(2 * wd))).chain(inner);
        Lmad::new(c(offset), dims.collect())
    };
    let src = match staged {
        true => b.array_param("dA", ElemType::F32, vec![p(n) * c(2 * wd)]),
        false => b.array_param("dsrc", ElemType::F32, [vec![p(n)], row.clone()].concat()),
    };
    let input = match staged {
        true => body.slice("dleft", src, Transform::LmadSlice(half(wd - 1, -1))),
        false => src,
    };
    let args = vec![ScalarExp::i64(w)];
    let name = if staged { "dbl_staged" } else { "dbl" };
    let ys = body.map_kernel("dys", name, p(n), row, ElemType::F32, vec![input], args);
    let result = match staged {
        true => body.update("dA'", src, SliceSpec::Lmad(half(wd, 1)), ys),
        false => ys,
    };
    let blk = body.finish(vec![result]);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    (b.finish(blk), env, kernels)
}

/// The three ways a kernel map runs — `Pure`; the optimized compile in
/// `Memory` with its `Safe` verdict, in place; the unoptimized compile in
/// `Memory` without verdicts, through private tiles — at `threads`, each as
/// (outputs, stats, kernel calls).
fn dbl_three_ways(
    w: i64,
    staged: bool,
    n: usize,
    threads: usize,
) -> [(Vec<OutputValue>, crate::Stats, u64); 3] {
    let calls = Arc::new(AtomicU64::new(0));
    let (prog, env, kernels) = dbl_map(w, staged, &calls);
    let len = n * w.max(1) as usize * (1 + staged as usize);
    let data: Vec<f32> = (0..len).map(|x| x as f32).collect();
    let inputs = vec![InputValue::I64(n as i64), InputValue::ArrayF32(data)];
    let counted = |r: Result<(Vec<OutputValue>, crate::Stats), String>| {
        let (out, stats) = r.expect("run");
        (out, stats, calls.swap(0, Ordering::Relaxed))
    };
    let memory = |opts: Options, verdicts: bool| {
        let compiled = compile(&prog, &opts.with_env(env.clone())).unwrap();
        let par = if verdicts {
            &compiled.report.par_safety[..]
        } else {
            &[]
        };
        let mut session = crate::Session::new();
        let h = session
            .prepare_full(&compiled.program, &kernels, &[], &[], par)
            .expect("prepare");
        counted(session.run_plan(h, &inputs, &kernels, Mode::Memory, threads))
    };
    [
        counted(run_program(&prog, &inputs, &kernels, Mode::Pure, threads)),
        memory(Options::optimized(), true),
        memory(Options::default(), false),
    ]
}

/// A kernel map is one call per tile. A direct map's tile is its pool
/// chunk (one call when it runs inline); a buffered map's 4-byte rows fit
/// a whole chunk in one tile, so it too makes one call per chunk, into the
/// worker's private tile.
#[test]
fn kernel_calls_run_whole_chunks() {
    let n = 1_000;
    for threads in [1, 2, 8] {
        let [pure, direct, buffered] = dbl_three_ways(1, false, n, threads);
        for (out, stats, calls) in [&pure, &direct, &buffered] {
            let chunks = match threads {
                1 => 1,
                _ => stats.par_chunks,
            };
            assert_eq!(stats.pool_dispatches, (threads > 1) as u64);
            assert_eq!(*calls, chunks, "{threads} threads: {stats:?}");
            assert_eq!(stats.kernel_launches, n as u64);
            assert_eq!(out, &pure.0);
        }
        assert_eq!(pure.1.bytes_copied + direct.1.bytes_copied, 0);
        assert_eq!(buffered.1.bytes_copied, (n * 4) as u64, "{threads} threads");
    }
}

/// Direct, buffered and `Pure` runs agree at every pool width: for rank-0
/// and rank-1 rows, and for buffered rows too wide for a 64 KiB tile to
/// hold two (one row per tile) or four (three per tile, and chunks that
/// end in a short tile). Inline, a buffered map makes one call per tile.
/// Every call of the sliced kernel qualifies for slices: the result's
/// rows, a private tile's (whose LMAD offset is negative past its first
/// slot) and `Pure`'s. The staged, NW-shaped twin agrees too, and its
/// optimized map runs in place, copying nothing.
#[test]
fn kernel_calls_agree_direct_buffered_and_pure() {
    for (w, n, tiles) in [
        (0, 700, 1),
        (5, 700, 1),
        (16_400, 260, 260),
        (5_000, 260, 87),
    ] {
        let wd = w.max(1) as usize;
        let dbl = |x: usize| 2.0 * (x / wd * wd + wd - 1 - x % wd) as f32;
        let sliced: Vec<f32> = (0..n * wd).map(dbl).collect();
        let staged: Vec<f32> = (0..n * 2 * wd)
            .map(|x| match (x / wd) % 2 {
                0 => x as f32,
                _ => dbl(x - wd),
            })
            .collect();
        for (is_staged, expect) in [(false, sliced), (true, staged)] {
            for threads in [1, 2, 8] {
                let runs = dbl_three_ways(w, is_staged, n, threads);
                for (out, _, _) in &runs {
                    let at = format!("w {w}, staged {is_staged}, {threads} threads");
                    assert!(out[0].as_f32s() == &expect[..], "{at}");
                }
                if threads == 1 {
                    assert_eq!(runs[2].2, tiles, "w {w}, staged {is_staged}");
                }
                if is_staged {
                    assert_eq!(runs[1].1.bytes_copied, 0, "w {w}: in place");
                }
            }
        }
    }
}

/// A kernel that writes a row outside its call's rows is its request's
/// typed error, inline and dispatched, and the session's next run — the
/// same plan, a kernel that keeps to its rows — succeeds.
#[test]
fn a_write_outside_a_calls_rows_is_the_requests_error() {
    let calls = Arc::new(AtomicU64::new(0));
    let (prog, env, kernels) = dbl_map(0, false, &calls);
    let mut rogue = KernelRegistry::new();
    rogue.register("dbl", |ctx| ctx.write_row(ctx.rows.end, &[0f32]));
    let compiled = compile(&prog, &Options::optimized().with_env(env)).unwrap();
    let n = 1_000;
    let data: Vec<f32> = (0..n).map(|x| x as f32).collect();
    let inputs = vec![InputValue::I64(n as i64), InputValue::ArrayF32(data)];
    for threads in [1, 2] {
        let mut session = crate::Session::new();
        let par = &compiled.report.par_safety;
        let h = session
            .prepare_full(&compiled.program, &kernels, &[], &[], par)
            .expect("prepare");
        let err = session
            .run_plan(h, &inputs, &rogue, Mode::Memory, threads)
            .expect_err("a write outside the call's rows");
        assert!(err.contains("outside its rows"), "{threads} threads: {err}");
        let (out, stats) = session
            .run_plan(h, &inputs, &kernels, Mode::Memory, threads)
            .expect("the session's next run");
        let expect: Vec<f32> = (0..n).map(|x| 2.0 * x as f32).collect();
        assert_eq!(out[0].as_f32s(), &expect[..]);
        assert_eq!(stats.pool_dispatches, (threads > 1) as u64);
    }
}

#[test]
fn loop_with_scalar_updates() {
    // res[k] = k² via a sequential loop of in-place scalar updates.
    let mut b = Builder::new("loop_scalar");
    let n = b.scalar_param("ln", ElemType::I64);
    let mut body = b.block();
    let res0 = body.replicate("res0", vec![p(n)], ScalarExp::f32(0.0));
    let param = body.loop_param("res", res0);
    let idx = body.loop_index("k");
    let mut lb = b.block();
    let sq = lb.scalar(
        "sq",
        ElemType::F32,
        ScalarExp::un(
            arraymem_ir::UnOp::ToF32,
            ScalarExp::bin(
                arraymem_ir::BinOp::Mul,
                ScalarExp::var(idx),
                ScalarExp::var(idx),
            ),
        ),
    );
    let upd = lb.update_scalar("res'", param, vec![ScalarExp::var(idx)], ScalarExp::var(sq));
    let lbody = lb.finish(vec![upd]);
    let fin = body.loop_(
        vec!["resF"],
        vec![(param, b.ty(res0))],
        vec![res0],
        idx,
        p(n),
        lbody,
    )[0];
    let blk = body.finish(vec![fin]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let inputs = vec![InputValue::I64(6)];
    let kernels = KernelRegistry::new();
    let (out, _, _) = run_all(&prog, env, &inputs, &kernels);
    assert_eq!(out[0].as_f32s(), &[0.0, 1.0, 4.0, 9.0, 16.0, 25.0]);
}

#[test]
fn if_with_different_branch_layouts() {
    // then: row-major fill; else: a transposed copy — the if's result gets
    // existential memory via anti-unification.
    let mut b = Builder::new("if_layouts");
    let flag = b.scalar_param("flag", ElemType::Bool);
    let src = b.array_param("isrc", ElemType::F32, vec![c(4), c(4)]);
    let mut body = b.block();
    let mut tb = b.block();
    let t1 = tb.replicate("t1", vec![c(4), c(4)], ScalarExp::f32(7.0));
    let then_b = tb.finish(vec![t1]);
    let mut eb = b.block();
    let tr = eb.transform("tr", src, Transform::Permute(vec![1, 0]));
    let else_b = eb.finish(vec![tr]);
    let res = body.if_(
        vec!["res"],
        vec![Type::array(ElemType::F32, vec![c(4), c(4)])],
        ScalarExp::var(flag),
        then_b,
        else_b,
    )[0];
    let blk = body.finish(vec![res]);
    let prog = b.finish(blk);
    let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
    for flag_v in [true, false] {
        let inputs = vec![InputValue::Bool(flag_v), InputValue::ArrayF32(data.clone())];
        let kernels = KernelRegistry::new();
        let (out, _, _) = run_all(&prog, Env::new(), &inputs, &kernels);
        let expect: Vec<f32> = if flag_v {
            vec![7.0; 16]
        } else {
            (0..16).map(|i| ((i % 4) * 4 + i / 4) as f32).collect()
        };
        assert_eq!(out[0].as_f32s(), &expect[..], "flag={flag_v}");
    }
}

#[test]
fn transform_chain_matches_semantics() {
    // slice → transpose → reshape chain, checked against Pure mode and
    // a hand computation.
    let mut b = Builder::new("chain");
    let src = b.array_param("csrc", ElemType::I64, vec![c(6), c(4)]);
    let mut body = b.block();
    let t = body.transform("t", src, Transform::Permute(vec![1, 0]));
    let s = body.slice(
        "s",
        t,
        Transform::Slice(vec![
            TripletSlice::range(c(1), c(2), c(2)),
            TripletSlice::range(c(0), c(6), c(1)),
        ]),
    );
    let f = body.transform("f", s, Transform::Reshape(vec![c(12)]));
    let out = body.copy("out", f);
    let blk = body.finish(vec![out]);
    let prog = b.finish(blk);
    let data: Vec<i64> = (0..24).collect();
    let inputs = vec![InputValue::ArrayI64(data.clone())];
    let kernels = KernelRegistry::new();
    let (out, _, _) = run_all(&prog, Env::new(), &inputs, &kernels);
    // t[i][j] = src[j][i]; s[a][b] = t[1+2a][b] = src[b][1+2a];
    // f[k] = s[k/6][k%6].
    let expect: Vec<i64> = (0..12)
        .map(|k| {
            let (a_, b_) = (k / 6, k % 6);
            data[(b_ * 4 + 1 + 2 * a_) as usize]
        })
        .collect();
    assert_eq!(out[0].as_i64s(), &expect[..]);
}

#[test]
fn update_with_triplet_strides() {
    // Write every other element.
    let mut b = Builder::new("strided");
    let n = b.scalar_param("sn", ElemType::I64);
    let a = b.array_param("sA", ElemType::F32, vec![p(n) * c(2)]);
    let mut body = b.block();
    let vals = body.replicate("vals", vec![p(n)], ScalarExp::f32(9.0));
    let a2 = body.update(
        "A2",
        a,
        SliceSpec::Triplet(vec![TripletSlice::range(c(0), p(n), c(2))]),
        vals,
    );
    let blk = body.finish(vec![a2]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let inputs = vec![InputValue::I64(4), InputValue::ArrayF32(vec![1.0; 8])];
    let kernels = KernelRegistry::new();
    let (out, _, opt) = run_all(&prog, env, &inputs, &kernels);
    assert_eq!(out[0].as_f32s(), &[9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0]);
    let _ = opt;
}

#[test]
fn overlapping_lmad_update_is_rejected_dynamically() {
    // A zero-stride LMAD slice self-overlaps; the language's dynamic check
    // must reject it (§III-B).
    let mut b = Builder::new("dynfail");
    let a = b.array_param("dA", ElemType::F32, vec![c(8)]);
    let mut body = b.block();
    let vals = body.replicate("vals", vec![c(4)], ScalarExp::f32(9.0));
    let a2 = body.update(
        "A2",
        a,
        SliceSpec::Lmad(Lmad::new(0, vec![Dim::new(c(4), c(0))])),
        vals,
    );
    let blk = body.finish(vec![a2]);
    let prog = b.finish(blk);
    let compiled = compile(&prog, &Options::default()).unwrap();
    let kernels = KernelRegistry::new();
    let r = run_program(
        &compiled.program,
        &[InputValue::ArrayF32(vec![0.0; 8])],
        &kernels,
        Mode::Memory,
        1,
    );
    assert!(is_refusal(&r), "zero-stride LMAD update must be rejected");
}

#[test]
fn iota_and_scalar_reads() {
    let mut b = Builder::new("iota_read");
    let n = b.scalar_param("in_", ElemType::I64);
    let mut body = b.block();
    let io = body.iota("io", p(n));
    let last = body.scalar(
        "last",
        ElemType::I64,
        ScalarExp::Index(
            io,
            vec![ScalarExp::bin(
                arraymem_ir::BinOp::Sub,
                ScalarExp::var(n),
                ScalarExp::i64(1),
            )],
        ),
    );
    let rep = body.replicate_typed("rep", ElemType::I64, vec![c(2)], ScalarExp::var(last));
    let blk = body.finish(vec![rep]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let kernels = KernelRegistry::new();
    let (out, _, _) = run_all(&prog, env, &[InputValue::I64(7)], &kernels);
    assert_eq!(out[0].as_i64s(), &[6, 6]);
}

/// Chained copies without hoisting: each intermediate dies right after
/// feeding the next copy, so the release plan must let the store recycle
/// one block into the next allocation instead of growing the heap
/// linearly with the chain length.
#[test]
fn release_plan_recycles_chained_intermediates() {
    let chain = 8usize;
    let mut b = Builder::new("chain_recycle");
    let n = b.scalar_param("qn", ElemType::I64);
    let a = b.array_param("qA", ElemType::F32, vec![p(n)]);
    let mut body = b.block();
    let mut cur = a;
    for k in 0..chain {
        cur = body.copy(&format!("c{k}"), cur);
    }
    let blk = body.finish(vec![cur]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let compiled = compile(
        &prog,
        &Options {
            hoist: false, // keep each alloc next to its copy
            ..Options::default().with_env(env)
        },
    )
    .unwrap();
    let kernels = KernelRegistry::new();
    let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let inputs = vec![InputValue::I64(64), InputValue::ArrayF32(data.clone())];
    let (out, stats) = run_program(&compiled.program, &inputs, &kernels, Mode::Memory, 1).unwrap();
    assert_eq!(out[0].as_f32s(), &data[..]);
    assert!(
        (stats.num_allocs as usize) < chain,
        "chain of {chain} copies must recycle blocks, got {} fresh allocs",
        stats.num_allocs
    );
    assert!(stats.blocks_reused > 0);
    assert!(stats.bytes_zeroing_elided > 0);
}

/// A store reused across runs (one `Session`) must produce bit-identical
/// outputs to a fresh store — recycled blocks skip zero-filling, so this
/// is the test that programs fully write before they read — while serving
/// the repeat run's allocations, input upload included, entirely from the
/// free list.
#[test]
fn session_reuse_is_equivalence_preserving() {
    let mut kernels = KernelRegistry::new();
    kernels.register("rev_row", rev_rows);
    let mut b = Builder::new("session_rows");
    let n = b.scalar_param("wn", ElemType::I64);
    let src = b.array_param("wsrc", ElemType::F32, vec![p(n), c(16)]);
    let mut body = b.block();
    let out = body.map_kernel(
        "revd",
        "rev_row",
        p(n),
        vec![c(16)],
        ElemType::F32,
        vec![src],
        vec![ScalarExp::i64(16)],
    );
    let blk = body.finish(vec![out]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    // Unopt: the mapnest pays private tiles — extra allocations the
    // reused session must recycle.
    let compiled = compile(&prog, &Options::default().with_env(env)).unwrap();
    let rows = 12usize;
    let data: Vec<f32> = (0..rows * 16).map(|i| (i as f32).sin()).collect();
    let inputs = vec![InputValue::I64(rows as i64), InputValue::ArrayF32(data)];
    let run = |s: &mut crate::Session| {
        let h = s
            .prepare_full(
                &compiled.program,
                &kernels,
                &[],
                &compiled.report.merges,
                &compiled.report.par_safety,
            )
            .unwrap();
        s.run_plan(h, &inputs, &kernels, Mode::Memory, 2).unwrap()
    };
    let (fresh_out, fresh_stats) = run(&mut crate::Session::new());
    assert!(fresh_stats.num_allocs > 0);
    let mut session = crate::Session::new();
    let (first, _) = run(&mut session);
    let (second, warm_stats) = run(&mut session);
    for ((a, b_), c_) in fresh_out.iter().zip(&first).zip(&second) {
        assert!(a.approx_eq(b_, 0.0), "fresh vs reused-session run 1");
        assert!(a.approx_eq(c_, 0.0), "fresh vs reused-session run 2");
    }
    assert_eq!(
        warm_stats.num_allocs, 0,
        "steady-state run must be served entirely from the free list"
    );
    assert!(warm_stats.blocks_reused > 0);
    assert!(warm_stats.bytes_zeroing_elided > 0);
    // Input upload recycles too: once the block population has settled
    // (run 2), 50 more warm runs add no block to the store.
    let settled = session.store.num_blocks();
    for _ in 0..50 {
        run(&mut session);
    }
    assert_eq!(
        session.store.num_blocks(),
        settled,
        "warm runs must upload inputs into recycled blocks"
    );
}

/// Randomized equivalence of the tiered access plans: flat accesses
/// through a classified view must agree with the general
/// unrank-then-index path for arbitrary (single and chained) LMADs.
#[test]
fn access_plans_match_generic_indexing() {
    use arraymem_lmad::{ConcreteIxFn, ConcreteLmad};
    use arraymem_symbolic::Rng64;
    let mut r = Rng64::new(0xACCE55);
    let mut plans_seen = std::collections::HashSet::new();
    for case in 0..500 {
        let rank = r.usize_in(3) + 1;
        let dims = (0..rank)
            .map(|_| Dim {
                card: r.i64_in(1, 5),
                stride: r.i64_in(-6, 7),
            })
            .collect();
        let mut l = ConcreteLmad { offset: 0, dims };
        // Shift so every touched offset is non-negative, then bound.
        let pts = l.points();
        let lo = pts.iter().copied().min().unwrap();
        l.offset = r.i64_in(0, 4) - lo.min(0);
        let ixfn = if r.chance(0.25) {
            // Chain through an intermediate reshape-style LMAD.
            let n = l.num_points();
            let outer = ConcreteLmad {
                offset: l.offset,
                dims: l.dims.clone(),
            };
            ConcreteIxFn {
                lmads: vec![outer, ConcreteLmad::row_major(&[n])],
            }
        } else {
            ConcreteIxFn::from_lmad(l)
        };
        let n = ixfn.num_elems();
        let max_off = ixfn.all_offsets().into_iter().max().unwrap_or(0);
        let mut store = crate::store::MemStore::new();
        let data: Vec<f32> = (0..=max_off).map(|i| i as f32 * 0.5).collect();
        let block = store
            .alloc_input(ElemType::F32, data.len(), &InputValue::ArrayF32(data))
            .unwrap();
        let view = crate::view::View::new(store.raw(block), ixfn.clone());
        plans_seen.insert(format!("{:?}", std::mem::discriminant(&ixfn.classify())));
        for f in 0..n {
            let expect = {
                let shape = ixfn.shape();
                let mut idx = vec![0i64; shape.len()];
                arraymem_lmad::concrete::unrank(f, &shape, &mut idx);
                ixfn.index(&idx)
            };
            assert_eq!(
                view.get(f).as_f32(),
                expect as f32 * 0.5,
                "case {case}: flat {f} disagrees for {ixfn:?}"
            );
        }
    }
    assert!(
        plans_seen.len() >= 3,
        "the generator must exercise several access tiers, saw {plans_seen:?}"
    );
}

/// Regression (code review): bool arrays go through the VM's 64-bit
/// integer accessors; storage must be word-sized or writes corrupt the
/// heap.
#[test]
fn bool_arrays_are_word_backed() {
    let mut b = Builder::new("bools");
    let n = b.scalar_param("bn", ElemType::I64);
    let mut body = b.block();
    let flags = body.replicate_typed(
        "flags",
        ElemType::Bool,
        vec![p(n)],
        ScalarExp::Const(arraymem_ir::Constant::Bool(true)),
    );
    let flipped = body.update_scalar(
        "flipped",
        flags,
        vec![ScalarExp::i64(2)],
        ScalarExp::Const(arraymem_ir::Constant::Bool(false)),
    );
    let blk = body.finish(vec![flipped]);
    let prog = b.finish(blk);
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let kernels = KernelRegistry::new();
    let (out, _, _) = run_all(&prog, env, &[InputValue::I64(5)], &kernels);
    assert_eq!(out[0].as_i64s(), &[1, 1, 0, 1, 1]);
}

/// Seeded property test of the store's single recycle routine: random
/// `alloc` / `release` sequences over all four element types and two
/// tenants' stores on one fleet meter, releasing by id or through the
/// allocation's handle, and releasing again through handles whose block
/// died since. Every live block is filled with its tenant's pattern byte,
/// so what a revive hands back is self-describing. After every step:
/// `bytes_live == Σ charged` and the meter holds both stores' sum; a
/// revive hands back a block of its own store, keeps the stale prefix
/// bytes — the tenant's own, never the other's — and marks it `Stale`; a
/// revive at a different element width keeps `min(old, new)` bytes; the
/// grown tail is zero (and `Zeroed`); a stale handle frees nothing, even
/// when its block lives again under another owner.
#[test]
fn recycling_keeps_its_contract_across_types_handles_and_tenants() {
    use crate::store::{CellState, FleetMeter, MemStore};
    use arraymem_symbolic::Rng64;
    use std::collections::HashMap;

    const ELEMS: [ElemType; 4] = [ElemType::F32, ElemType::F64, ElemType::I64, ElemType::Bool];
    const PATTERN: [u8; 2] = [0xA1, 0xB2];
    /// What the test knows about one tenant's store.
    #[derive(Default)]
    struct Model {
        /// Live block id → (bytes charged, the allocation's handle).
        live: HashMap<usize, (usize, (usize, u32))>,
        /// Dead block id still owned by the store's free list →
        /// (element type, bytes) it was last sized for.
        dead: HashMap<usize, (ElemType, usize)>,
        /// Handles of allocations that have been released.
        stale: Vec<(usize, u32)>,
    }
    fn bytes_of(s: &mut MemStore, id: usize) -> &mut [u8] {
        let r = s.raw(id);
        unsafe { std::slice::from_raw_parts_mut(r.ptr, r.len * r.elem.size_bytes()) }
    }

    let meter = FleetMeter::default();
    let mut stores = [
        MemStore::metered(meter.clone()),
        MemStore::metered(meter.clone()),
    ];
    let mut models = [Model::default(), Model::default()];
    for s in &mut stores {
        s.set_shadow(true);
    }
    let mut r = Rng64::new(0x5EED_B10C);
    let (mut cross_width, mut stale_on_live, mut grown) = (0, 0, 0);
    for step in 0..4000 {
        let t = r.usize_in(2);
        let (s, m) = (&mut stores[t], &mut models[t]);
        let live_ids: Vec<usize> = m.live.keys().copied().collect();
        match r.usize_in(10) {
            0..=4 => {
                let (elem, len) = (ELEMS[r.usize_in(4)], r.usize_in(40));
                let (size, new) = (elem.size_bytes(), len * elem.size_bytes());
                let before = (s.num_allocs, s.blocks_reused, s.bytes_zeroing_elided);
                let id = s.alloc(elem, len);
                assert!(
                    !m.live.contains_key(&id),
                    "step {step}: live block handed out twice"
                );
                assert_eq!((s.elem(id), s.len(id)), (elem, len), "step {step}");
                let fresh = s.num_allocs - before.0;
                assert_eq!(fresh + (s.blocks_reused - before.1), 1, "step {step}");
                let kept = (s.bytes_zeroing_elided - before.2) as usize;
                assert!(kept <= new && (fresh == 0 || kept == 0), "step {step}");
                match m.dead.remove(&id) {
                    // A block this store still held on its free list.
                    Some((old_elem, old)) => {
                        assert_eq!(kept, old.min(new), "step {step}: {old_elem:?} -> {elem:?}");
                        cross_width += (old_elem.size_bytes() != size && kept > 0) as usize;
                        grown += (new > old) as usize;
                    }
                    None => assert_eq!(fresh, 1, "step {step}: revived a block it never held"),
                }
                // Contents: the kept prefix is this tenant's own stale
                // bytes, the rest zero — never the other tenant's pattern.
                let bytes = bytes_of(s, id);
                assert!(
                    bytes[..kept].iter().all(|&b| b == PATTERN[t]),
                    "step {step}: prefix"
                );
                assert!(
                    bytes[kept..].iter().all(|&b| b == 0),
                    "step {step}: tail not zero"
                );
                bytes.fill(PATTERN[t]);
                // Provenance: recycled prefix `Stale`, everything past it
                // `Zeroed`.
                for i in 0..len {
                    let want = if i * size < kept {
                        CellState::Stale
                    } else {
                        CellState::Zeroed
                    };
                    assert_eq!(s.shadow_cell(id, i), Some(want), "step {step}: cell {i}");
                }
                m.live.insert(id, (new, s.handle(id)));
            }
            5..=7 if !live_ids.is_empty() => {
                let id = live_ids[r.usize_in(live_ids.len())];
                let (bytes, handle) = m.live.remove(&id).unwrap();
                m.dead.insert(id, (s.elem(id), bytes));
                if r.chance(0.5) {
                    assert!(s.release_handle(handle, None), "step {step}");
                    assert!(!s.release_handle(handle, None), "step {step}: died twice");
                } else {
                    s.release(id);
                    s.release(id); // a second release is a no-op
                }
                m.stale.push(handle);
                let n = s.len(id);
                assert!((0..n).all(|i| s.shadow_cell(id, i) == Some(CellState::Released)));
            }
            8 if !m.stale.is_empty() => {
                // A release through the handle of a dead allocation frees
                // nothing: not its free block, not the block's next owner.
                let handle = m.stale[r.usize_in(m.stale.len())];
                stale_on_live += m.live.contains_key(&handle.0) as usize;
                assert!(!s.release_handle(handle, None), "step {step}: stale handle");
            }
            _ => {}
        }
        // `reset_peak` restarts the high-water from the live set, which
        // makes `bytes_live` observable.
        let charged: usize = m.live.values().map(|(bytes, _)| bytes).sum();
        s.reset_peak();
        assert_eq!(s.peak_bytes_live, charged as u64, "step {step}: bytes_live");
        let all: usize = models
            .iter()
            .flat_map(|m| m.live.values())
            .map(|(bytes, _)| bytes)
            .sum();
        assert_eq!(meter.stats().live_bytes, all as u64, "step {step}: meter");
    }
    assert!(
        cross_width > 50 && stale_on_live > 50 && grown > 50,
        "generator must reach every revive flavour: {cross_width} cross-width, \
         {stale_on_live} stale handles on revived blocks, {grown} grown"
    );
}

/// Regression: an integer `/` or `%` whose divisor is an input's zero (or
/// `i64::MIN / -1`) is an error of the request, not a panic of the VM —
/// at top level and inside a `map_lambda` body alike.
#[test]
fn integer_division_by_zero_is_an_error_not_a_panic() {
    use arraymem_ir::BinOp;
    let kernels = KernelRegistry::new();
    for op in [BinOp::Div, BinOp::Rem] {
        let mut b = Builder::new("div_scalar");
        let x = b.scalar_param("dx", ElemType::I64);
        let y = b.scalar_param("dy", ElemType::I64);
        let mut body = b.block();
        let q = body.scalar(
            "q",
            ElemType::I64,
            ScalarExp::bin(op, ScalarExp::var(x), ScalarExp::var(y)),
        );
        let prog = b.finish(body.finish(vec![q]));
        let run = |x, y| {
            let inputs = [InputValue::I64(x), InputValue::I64(y)];
            run_program(&prog, &inputs, &kernels, Mode::Pure, 1).map(|(out, _)| out)
        };
        let defined = if op == BinOp::Div { 3 } else { 1 };
        assert_eq!(run(7, 2), Ok(vec![OutputValue::I64(defined)]));
        for (x, y) in [(7, 0), (i64::MIN, -1)] {
            let err = run(x, y).expect_err("undefined quotient");
            assert!(err.contains("undefined"), "{op:?} {x} {y}: {err}");
        }

        let mut b = Builder::new("div_lambda");
        let n = b.scalar_param("dn", ElemType::I64);
        let xs = b.array_param("dxs", ElemType::I64, vec![p(n)]);
        let mut body = b.block();
        let qs = body.map_lambda("qs", p(n), vec![xs], ElemType::I64, |lb, ps| {
            let q = lb.scalar(
                "q",
                ElemType::I64,
                ScalarExp::bin(op, ScalarExp::i64(7), ScalarExp::var(ps[0])),
            );
            vec![q]
        });
        let prog = b.finish(body.finish(vec![qs]));
        let inputs = [InputValue::I64(3), InputValue::ArrayI64(vec![1, 0, 2])];
        for mode in [Mode::Pure, Mode::Memory] {
            let compiled = compile(&prog, &Options::default()).expect("compile");
            let err = run_program(&compiled.program, &inputs, &kernels, mode, 1)
                .expect_err("element 1 divides by zero");
            assert!(err.contains("undefined"), "{op:?} {mode:?}: {err}");
        }
    }
}

/// Regression: integer `+ - *`, unary `-` and `abs` whose result does not
/// fit an `i64` are errors of the request. A debug build panicked on them
/// (under the server, with the tenant's mutex held) and a release build
/// wrapped silently. So is a float where a boolean is required, which
/// panicked in both. As a scalar statement, in a `map_lambda` body and as
/// the source of a point update; every mode.
#[test]
fn integer_overflow_is_an_error_not_a_panic() {
    use arraymem_ir::{BinOp, UnOp};
    type Build = fn(ScalarExp, ScalarExp) -> ScalarExp;
    let kernels = KernelRegistry::new();
    // `e(x, y)` over the inputs `x`, `y: i64` in the three places (the
    // lambda sees `x` as its element), run in the three modes.
    let run = |e: Build, x: i64, y: i64| {
        let mut got = Vec::new();
        for place in 0..3 {
            let mut b = Builder::new("overflow");
            let xv = b.scalar_param("ox", ElemType::I64);
            let yv = b.scalar_param("oy", ElemType::I64);
            let xs = b.array_param("oxs", ElemType::I64, vec![c(2)]);
            let (x_, y_) = (ScalarExp::var(xv), ScalarExp::var(yv));
            let mut body = b.block();
            let r = match place {
                0 => body.scalar("r", ElemType::I64, e(x_, y_)),
                1 => body.map_lambda("rs", c(2), vec![xs], ElemType::I64, |lb, ps| {
                    vec![lb.scalar("r", ElemType::I64, e(ScalarExp::var(ps[0]), y_))]
                }),
                _ => {
                    let ys = body.iota("ys", c(2));
                    body.update_scalar("ys2", ys, vec![ScalarExp::i64(0)], e(x_, y_))
                }
            };
            let prog = b.finish(body.finish(vec![r]));
            let compiled = compile(&prog, &Options::default()).expect("compile");
            let inputs = [
                InputValue::I64(x),
                InputValue::I64(y),
                InputValue::ArrayI64(vec![x, x]),
            ];
            for mode in [Mode::Pure, Mode::Memory, Mode::Checked] {
                let prog = if mode == Mode::Pure {
                    &prog
                } else {
                    &compiled.program
                };
                let out = run_program(prog, &inputs, &kernels, mode, 1).map(|(out, _)| out);
                got.push((place, mode, out));
            }
        }
        got
    };
    let (min, max) = (i64::MIN, i64::MAX);
    let half = || ScalarExp::f32(0.5);

    // The last representable sum still comes out, at every place.
    for (place, mode, out) in run(|x, y| ScalarExp::bin(BinOp::Add, x, y), max - 1, 1) {
        let want = [
            OutputValue::I64(max),
            OutputValue::ArrayI64(vec![max, max]),
            OutputValue::ArrayI64(vec![max, 1]),
        ];
        assert_eq!(out, Ok(vec![want[place].clone()]), "{place} {mode:?}");
    }

    let overflows = "overflows";
    let not_a_bool = "where a boolean is required";
    let refused: [(&str, Build, i64, i64, &str); 7] = [
        (
            "MAX + 1",
            |x, y| ScalarExp::bin(BinOp::Add, x, y),
            max,
            1,
            overflows,
        ),
        (
            "MIN - 1",
            |x, y| ScalarExp::bin(BinOp::Sub, x, y),
            min,
            1,
            overflows,
        ),
        (
            "MAX * 2",
            |x, y| ScalarExp::bin(BinOp::Mul, x, y),
            max,
            2,
            overflows,
        ),
        (
            "-MIN",
            |x, _| ScalarExp::un(UnOp::Neg, x),
            min,
            0,
            overflows,
        ),
        (
            "abs(MIN)",
            |x, _| ScalarExp::un(UnOp::Abs, x),
            min,
            0,
            overflows,
        ),
        (
            "select on a float",
            |x, y| ScalarExp::Select(Box::new(ScalarExp::f32(0.5)), Box::new(x), Box::new(y)),
            1,
            2,
            not_a_bool,
        ),
        (
            "! of a float",
            |x, y| {
                let not = ScalarExp::un(UnOp::Not, ScalarExp::f32(0.5));
                ScalarExp::Select(Box::new(not), Box::new(x), Box::new(y))
            },
            1,
            2,
            not_a_bool,
        ),
    ];
    for (what, e, x, y, why) in refused {
        for (place, mode, out) in run(e, x, y) {
            let err = out.expect_err(what);
            assert!(err.contains(why), "{what} {place} {mode:?}: {err}");
        }
    }

    // A float as the value of a `bool` binding and as an `if` condition.
    for as_if in [false, true] {
        let b = Builder::new("float_cond");
        let mut body = b.block();
        let r = if as_if {
            let branch = |name, k| {
                let mut bb = b.block();
                let v = bb.scalar(name, ElemType::I64, ScalarExp::i64(k));
                bb.finish(vec![v])
            };
            let ty = Type::Scalar(ElemType::I64);
            body.if_(vec!["r"], vec![ty], half(), branch("t", 1), branch("f", 2))[0]
        } else {
            body.scalar("r", ElemType::Bool, half())
        };
        let prog = b.finish(body.finish(vec![r]));
        let compiled = compile(&prog, &Options::default()).expect("compile");
        for (mode, prog) in [(Mode::Pure, &prog), (Mode::Memory, &compiled.program)] {
            let err = run_program(prog, &[], &kernels, mode, 1).expect_err("float condition");
            assert!(err.contains(not_a_bool), "if={as_if} {mode:?}: {err}");
        }
    }
}

/// Scalar code evaluates operands left to right, and the first step that
/// fails in that order raises: with `x = 0` and `y = MAX`, `(100 / x) +
/// (y + 1)` is the quotient's error and the swapped sum the overflow's. A
/// `select` runs only the arm it picks. As a scalar statement, in a
/// `map_lambda` body and as the source of a point update, in every mode;
/// and in a strip-eligible body of two statements, where a strip computes
/// each operator for every lane before the next and still reports the
/// failing element's first error.
#[test]
fn operand_order_picks_the_error_and_an_unpicked_arm_never_runs() {
    use arraymem_ir::BinOp;
    type Build = fn(ScalarExp, ScalarExp) -> ScalarExp;
    const S: usize = crate::strip::STRIP;
    let quotient_first: Build = |x, y| {
        let q = ScalarExp::bin(BinOp::Div, ScalarExp::i64(100), x);
        let overflow = ScalarExp::bin(BinOp::Add, y, ScalarExp::i64(1));
        ScalarExp::bin(BinOp::Add, q, overflow)
    };
    let overflow_first: Build = |x, y| {
        let q = ScalarExp::bin(BinOp::Div, ScalarExp::i64(100), x);
        let overflow = ScalarExp::bin(BinOp::Add, y, ScalarExp::i64(1));
        ScalarExp::bin(BinOp::Add, overflow, q)
    };
    let undefined = "integer Div of 100 by 0 is undefined";
    let overflows = format!("integer Add of {} by 1 overflows", i64::MAX);
    let overflows = overflows.as_str();

    // `e(x, y)` over the inputs `x`, `y: i64` in the three places (the
    // lambda sees `x` as its element), in the three modes.
    let in_places = |e: Build, x: i64, y: i64| {
        (0..3).flat_map(move |place| {
            let mut b = Builder::new("order");
            let xv = b.scalar_param("qx", ElemType::I64);
            let yv = b.scalar_param("qy", ElemType::I64);
            let xs = b.array_param("qxs", ElemType::I64, vec![c(2)]);
            let (x_, y_) = (ScalarExp::var(xv), ScalarExp::var(yv));
            let mut body = b.block();
            let r = match place {
                0 => body.scalar("r", ElemType::I64, e(x_, y_)),
                1 => body.map_lambda("rs", c(2), vec![xs], ElemType::I64, |lb, ps| {
                    vec![lb.scalar("r", ElemType::I64, e(ScalarExp::var(ps[0]), y_))]
                }),
                _ => {
                    let ys = body.iota("ys", c(2));
                    body.update_scalar("ys2", ys, vec![ScalarExp::i64(0)], e(x_, y_))
                }
            };
            let prog = b.finish(body.finish(vec![r]));
            let compiled = compile(&prog, &Options::default()).expect("compile");
            let inputs = [
                InputValue::I64(x),
                InputValue::I64(y),
                InputValue::ArrayI64(vec![x, x]),
            ];
            let runs = in_three_modes(&prog, &compiled, &inputs);
            runs.map(|r| (place, r.map(|(out, _)| out)))
        })
    };
    for (e, want) in [(quotient_first, undefined), (overflow_first, overflows)] {
        for (place, r) in in_places(e, 0, i64::MAX) {
            assert_eq!(r.expect_err("two steps fail"), want, "place {place}");
        }
    }
    let unpicked: Build = |x, _| {
        let never = ScalarExp::bin(BinOp::Div, ScalarExp::i64(1), ScalarExp::i64(0));
        let pick = ScalarExp::Const(arraymem_ir::Constant::Bool(false));
        ScalarExp::Select(Box::new(pick), Box::new(never), Box::new(x))
    };
    for (place, r) in in_places(unpicked, 2, 0) {
        let want = [
            OutputValue::I64(2),
            OutputValue::ArrayI64(vec![2, 2]),
            OutputValue::ArrayI64(vec![2, 1]),
        ];
        assert_eq!(r, Ok(vec![want[place].clone()]), "place {place}");
    }

    // `t = y; s = e(x, t)` over `3·STRIP + 7` elements, lane `S + 9` the
    // only one with `x = 0` and `y = MAX`.
    let n = 3 * S + 7;
    for (e, want) in [(quotient_first, undefined), (overflow_first, overflows)] {
        let mut b = Builder::new("order_strips");
        let xs = b.array_param("oxs", ElemType::I64, vec![c(n as i64)]);
        let ys = b.array_param("oys", ElemType::I64, vec![c(n as i64)]);
        let mut body = b.block();
        let r = body.map_lambda("os", c(n as i64), vec![xs, ys], ElemType::I64, |lb, ps| {
            let t = lb.scalar("t", ElemType::I64, ScalarExp::var(ps[1]));
            let s = e(ScalarExp::var(ps[0]), ScalarExp::var(t));
            vec![lb.scalar("s", ElemType::I64, s)]
        });
        let prog = b.finish(body.finish(vec![r]));
        let compiled = compile(&prog, &Options::default()).expect("compile");
        let (mut xs, mut ys) = (vec![5i64; n], vec![1i64; n]);
        (xs[S + 9], ys[S + 9]) = (0, i64::MAX);
        let inputs = [InputValue::ArrayI64(xs), InputValue::ArrayI64(ys)];
        for r in in_three_modes(&prog, &compiled, &inputs) {
            assert_eq!(r.expect_err("lane S + 9 fails twice"), want);
        }
        let inputs = [
            InputValue::ArrayI64(vec![5; n]),
            InputValue::ArrayI64(vec![1; n]),
        ];
        for r in in_three_modes(&prog, &compiled, &inputs) {
            let (out, stats) = r.expect("every lane has a value");
            assert_eq!(out, [OutputValue::ArrayI64(vec![22; n])]);
            assert_eq!(stats.lambda_elems_elementwise, 0);
        }
    }
}

/// Lowering maps coefficients `Poly → SlotPoly` and the executor maps
/// `SlotPoly → i64`; the composition must be evaluation of the symbolic
/// original under the bindings the registers hold — for an index function
/// and a transform with live size symbols — and a symbol bound nowhere
/// must come out `None` on both sides.
#[test]
fn lowered_coefficients_evaluate_like_the_symbolic_ones() {
    use crate::plan::{lower_plan_full, Instr, LoweredIxFn};
    use crate::value::Value;
    use arraymem_core::CircuitCheck;
    use arraymem_ir::Exp;
    use arraymem_symbolic::sym;

    let mut b = Builder::new("lowered_coeffs");
    let n = b.scalar_param("ln", ElemType::I64);
    let m = b.scalar_param("lm", ElemType::I64);
    let a = b.array_param("lA", ElemType::F32, vec![p(n) * p(m)]);
    let mut body = b.block();
    let rows = Lmad::new(p(m), vec![Dim::new(p(n) - c(1), p(m)), Dim::new(p(m), 1)]);
    let tail = body.slice("tail", a, Transform::LmadSlice(rows));
    let cols = body.transform("cols", tail, Transform::Permute(vec![1, 0]));
    let window = body.slice(
        "window",
        cols,
        Transform::Slice(vec![
            TripletSlice::range(c(1), p(m) - c(1), c(1)),
            TripletSlice::Fix(p(n) - c(2)),
        ]),
    );
    let prog = b.finish(body.finish(vec![window]));
    let compiled = compile(&prog, &Options::default()).expect("compile");

    // A footprint over a symbol no statement binds, anchored at `window`.
    let ghost = Lmad::new(Poly::var(sym("ghost")), vec![Dim::new(p(n), 1)]);
    let recorded = [CircuitCheck {
        root: "tail".into(),
        stm: window.to_string(),
        dst_block: a,
        writes: vec![ghost.clone()],
        uses: vec![Lmad::new(p(m), vec![Dim::new(p(n), p(m))])],
    }];
    let kernels = KernelRegistry::new();
    let plan = lower_plan_full(&compiled.program, &kernels, &recorded, &[], &[]).expect("lower");

    let (nv, mv) = (5, 3);
    let mut regs = vec![Value::i64(0); plan.num_slots() as usize];
    regs[plan.params[0].slot as usize] = Value::i64(nv);
    regs[plan.params[1].slot as usize] = Value::i64(mv);
    let bound = |s| [(n, nv), (m, mv)].iter().find(|b| b.0 == s).map(|b| b.1);

    let stms = compiled.program.body.stms.iter();
    let mut sources = stms.filter(|s| matches!(s.exp, Exp::Transform { .. }));
    let (mut transforms, mut checks_seen) = (0, 0);
    for instr in &plan.body.instrs {
        match instr {
            Instr::Transform { dest, tr, .. } => {
                let stm = sources.next().expect("one statement per instruction");
                let Exp::Transform { tr: sym_tr, .. } = &stm.exp else {
                    unreachable!()
                };
                let got = tr.map(|p| p.eval(&regs).ok()).expect("closed transform");
                assert_eq!(Some(got), sym_tr.map(|p| p.eval(bound)), "{sym_tr:?}");
                let sym_ix = &stm.pat[0].mem.as_ref().expect("introduced").ixfn;
                let LoweredIxFn::Dynamic(ix) = &dest.mem.as_ref().expect("lowered").ixfn else {
                    panic!("{sym_ix:?} depends on the size parameters")
                };
                assert_eq!(
                    ix.map(|p| p.eval(&regs).ok()),
                    sym_ix.map(|p| p.eval(bound))
                );
                assert_eq!(format!("{ix:?}"), format!("{sym_ix:?}"));
                transforms += 1;
            }
            Instr::VerifyChecks { checks } => {
                let [lowered] = &checks[..] else {
                    panic!("one check was recorded")
                };
                assert_eq!(lowered.writes[0].map(|p| p.eval(&regs).ok()), None);
                assert_eq!(ghost.map(|p| p.eval(bound)), None);
                assert_eq!(
                    lowered.uses[0].map(|p| p.eval(&regs).ok()),
                    recorded[0].uses[0].map(|p| p.eval(bound))
                );
                assert!(lowered.uses[0].map(|p| p.eval(&regs).ok()).is_some());
                checks_seen += 1;
            }
            _ => {}
        }
    }
    assert_eq!((transforms, checks_seen), (3, 1));
}

/// A circuit check that confirms nothing is counted, not dropped: a
/// footprint pair past `FOOTPRINT_CAP` points is skipped, so is a footprint
/// over a symbol no statement binds, and neither counts as verified.
#[test]
fn circuit_checks_that_confirm_nothing_are_counted_skipped() {
    use crate::vm::{Session, FOOTPRINT_CAP};
    use arraymem_core::CircuitCheck;
    use arraymem_symbolic::sym;

    let mut b = Builder::new("skipped_checks");
    let n = b.scalar_param("sn", ElemType::I64);
    let mut body = b.block();
    let x = body.scalar("sx", ElemType::I64, ScalarExp::var(n));
    let prog = b.finish(body.finish(vec![x]));
    let compiled = compile(&prog, &Options::default()).expect("compile");
    let check = |writes: Lmad<Poly>| CircuitCheck {
        root: "sx".into(),
        stm: x.to_string(),
        dst_block: x,
        writes: vec![writes],
        uses: vec![Lmad::new(p(n), vec![Dim::new(p(n), 1)])],
    };
    let wide = check(Lmad::new(c(0), vec![Dim::new(p(n), 1)]));
    let ghost = check(Lmad::new(Poly::var(sym("ghost")), vec![Dim::new(c(1), 1)]));
    let kernels = KernelRegistry::new();
    for (checks, skipped) in [(vec![wide.clone()], 1), (vec![wide, ghost], 2)] {
        let mut session = Session::new();
        let h = session.prepare_full(&compiled.program, &kernels, &checks, &[], &[]);
        let inputs = [InputValue::I64(FOOTPRINT_CAP + 1)];
        let run = session.run_plan(h.expect("prepare"), &inputs, &kernels, Mode::Checked, 1);
        let (_, stats) = run.expect("run");
        assert_eq!(
            (stats.circuits_skipped, stats.circuits_verified),
            (skipped, 0)
        );
        assert!(stats.diagnostics.is_empty(), "{:?}", stats.diagnostics);
    }
}

/// Regression: a block size is a program input. `iota n` with `n = 2^61`
/// used to wrap `len * 8` to a 0-word block behind a `RawBuf` of 2^61
/// elements (every bounds check passed; SIGSEGV), and `n = i64::MAX`
/// panicked `capacity overflow`. Both are the request's error, in every
/// mode, and the store serves the next allocation.
#[test]
fn oversized_allocation_is_an_error_not_a_crash() {
    let kernels = KernelRegistry::new();
    let mut b = Builder::new("big_iota");
    let n = b.scalar_param("bn", ElemType::I64);
    let mut body = b.block();
    let xs = body.iota("bxs", p(n));
    let prog = b.finish(body.finish(vec![xs]));
    let compiled = compile(&prog, &Options::default()).expect("compile");
    for mode in [Mode::Pure, Mode::Memory, Mode::Checked] {
        let prog = if mode == Mode::Pure {
            &prog
        } else {
            &compiled.program
        };
        for n in [1i64 << 61, i64::MAX, 1 << 45] {
            let err = run_program(prog, &[InputValue::I64(n)], &kernels, mode, 1)
                .expect_err("no such block can exist");
            assert!(
                err.contains("address space") || err.contains("out of memory"),
                "{mode:?} {n}: {err}"
            );
        }
        let (out, _) = run_program(prog, &[InputValue::I64(3)], &kernels, mode, 1).expect("iota 3");
        assert_eq!(out, vec![OutputValue::ArrayI64(vec![0, 1, 2])]);
    }

    let mut store = crate::store::MemStore::new();
    for len in [1usize << 61, usize::MAX, isize::MAX as usize / 4 + 1] {
        assert!(store.try_alloc(ElemType::F32, len).is_err(), "{len}");
        assert!(store.try_alloc(ElemType::I64, len).is_err(), "{len}");
    }
    let id = store.alloc(ElemType::F32, 4);
    assert_eq!((store.len(id), store.num_blocks()), (4, 1));
}

/// Regression: a size is a polynomial over the request's inputs, and its
/// evaluation wrapped. `iota (n*n)` with `n = 2^32` (`n*n` wraps to 0) or
/// `n = 3 037 000 500` (just past `i64::MAX`) answered with an empty
/// array in every mode. An overflow at any step is the request's error —
/// for an `iota`, a `replicate` and a map's width alike, every mode.
#[test]
fn overflowing_size_is_an_error_not_an_empty_array() {
    let build = |what: usize| {
        let mut b = Builder::new("square_size");
        let n = b.scalar_param("zn", ElemType::I64);
        let xs = b.array_param("zxs", ElemType::F32, vec![c(4)]);
        let mut body = b.block();
        let nn = p(n) * p(n);
        let r = match what {
            0 => body.iota("zr", nn),
            1 => body.replicate("zr", vec![nn], ScalarExp::f32(1.5)),
            _ => body.map_lambda("zr", nn, vec![xs], ElemType::F32, |lb, ps| {
                let x = ScalarExp::var(ps[0]);
                let sq = ScalarExp::bin(arraymem_ir::BinOp::Mul, x.clone(), x);
                vec![lb.scalar("zsq", ElemType::F32, sq)]
            }),
        };
        b.finish(body.finish(vec![r]))
    };
    let inputs = |n| {
        [
            InputValue::I64(n),
            InputValue::ArrayF32(vec![1.0, 2.0, 3.0, 4.0]),
        ]
    };
    for what in 0..3 {
        let prog = build(what);
        let compiled = compile(&prog, &Options::default()).expect("compile");
        for n in [1i64 << 32, 3_037_000_500] {
            for (mode, r) in ["pure", "memory", "checked"].iter().zip(in_three_modes(
                &prog,
                &compiled,
                &inputs(n),
            )) {
                let err = r.expect_err("n*n has no i64");
                assert!(
                    err.contains("overflows") && !err.contains("unresolved"),
                    "{what} {n} ({mode}): {err}"
                );
            }
        }
        let want = [
            OutputValue::ArrayI64(vec![0, 1, 2, 3]),
            OutputValue::ArrayF32(vec![1.5; 4]),
            OutputValue::ArrayF32(vec![1.0, 4.0, 9.0, 16.0]),
        ];
        for r in in_three_modes(&prog, &compiled, &inputs(2)) {
            assert_eq!(r.expect("2*2 fits").0, std::slice::from_ref(&want[what]));
        }
    }
}

/// Regression: a coordinate is a program input. `xs[k]` with `k` outside
/// the array used to reach the view's block assert (a panic — under the
/// server, with the tenant's mutex held), and a 2-D `m[0, 4]` on a 2×3
/// array silently *was* `m[1, 1]`: the index function maps the stray
/// coordinate onto a neighbouring row, so a point update there overwrote
/// another element with no diagnostic in any mode. Every coordinate is
/// checked against the array's shape — reads and updates, every mode.
#[test]
fn out_of_range_index_is_an_error_not_a_panic() {
    let kernels = KernelRegistry::new();
    let in_modes = |prog: &Program, inputs: &[InputValue]| {
        let compiled = compile(prog, &Options::default()).expect("compile");
        [Mode::Pure, Mode::Memory, Mode::Checked].map(|mode| {
            let prog = if mode == Mode::Pure {
                prog
            } else {
                &compiled.program
            };
            run_program(prog, inputs, &kernels, mode, 1).map(|(out, stats)| {
                assert!(
                    stats.diagnostics.is_empty(),
                    "{mode:?}: {:?}",
                    stats.diagnostics
                );
                out
            })
        })
    };
    let refused = |got: [Result<Vec<OutputValue>, String>; 3], what: &str| {
        for (mode, r) in ["pure", "memory", "checked"].iter().zip(got) {
            let err = r.expect_err(what);
            assert!(
                err.contains("out of bounds for shape"),
                "{what} ({mode}): {err}"
            );
        }
    };

    // One dimension: `q = xs[k]` and `ys = xs with [k] = -7`, 4 elements.
    let xs_data = vec![10, 11, 12, 13];
    let mut b = Builder::new("read_1d");
    let k = b.scalar_param("rk", ElemType::I64);
    let xs = b.array_param("rxs", ElemType::I64, vec![c(4)]);
    let mut body = b.block();
    let q = body.scalar(
        "q",
        ElemType::I64,
        ScalarExp::Index(xs, vec![ScalarExp::var(k)]),
    );
    let read = b.finish(body.finish(vec![q]));
    let mut b = Builder::new("update_1d");
    let k = b.scalar_param("uk", ElemType::I64);
    let xs = b.array_param("uxs", ElemType::I64, vec![c(4)]);
    let mut body = b.block();
    let ys = body.update_scalar("ys", xs, vec![ScalarExp::var(k)], ScalarExp::i64(-7));
    let update = b.finish(body.finish(vec![ys]));
    let inputs = |k| [InputValue::I64(k), InputValue::ArrayI64(xs_data.clone())];
    for k in [4, -1, 5, i64::MIN] {
        refused(in_modes(&read, &inputs(k)), &format!("xs[{k}]"));
        refused(in_modes(&update, &inputs(k)), &format!("xs[{k}] = -7"));
    }
    for out in in_modes(&read, &inputs(3)) {
        assert_eq!(out, Ok(vec![OutputValue::I64(13)]));
    }
    for out in in_modes(&update, &inputs(0)) {
        assert_eq!(out, Ok(vec![OutputValue::ArrayI64(vec![-7, 11, 12, 13])]));
    }

    // Two dimensions: `[0, 4]` of a 2×3 array is inside the block — it is
    // where `[1, 1]` lives — and outside the array.
    let m_data: Vec<i64> = (0..6).collect();
    let mut b = Builder::new("read_2d");
    let (i, j) = (
        b.scalar_param("ri", ElemType::I64),
        b.scalar_param("rj", ElemType::I64),
    );
    let m = b.array_param("rm", ElemType::I64, vec![c(2), c(3)]);
    let mut body = b.block();
    let at = vec![ScalarExp::var(i), ScalarExp::var(j)];
    let q = body.scalar("q", ElemType::I64, ScalarExp::Index(m, at));
    let read = b.finish(body.finish(vec![q]));
    let mut b = Builder::new("update_2d");
    let (i, j) = (
        b.scalar_param("ui", ElemType::I64),
        b.scalar_param("uj", ElemType::I64),
    );
    let m = b.array_param("um", ElemType::I64, vec![c(2), c(3)]);
    let mut body = b.block();
    let at = vec![ScalarExp::var(i), ScalarExp::var(j)];
    let m2 = body.update_scalar("m2", m, at, ScalarExp::i64(-7));
    let update = b.finish(body.finish(vec![m2]));
    let inputs = |i, j| {
        [
            InputValue::I64(i),
            InputValue::I64(j),
            InputValue::ArrayI64(m_data.clone()),
        ]
    };
    for (i, j) in [(0, 4), (0, 3), (2, 0), (1, -1), (-1, 3)] {
        refused(in_modes(&read, &inputs(i, j)), &format!("m[{i}, {j}]"));
        refused(
            in_modes(&update, &inputs(i, j)),
            &format!("m[{i}, {j}] = -7"),
        );
    }
    for out in in_modes(&read, &inputs(1, 1)) {
        assert_eq!(out, Ok(vec![OutputValue::I64(4)]));
    }
    for out in in_modes(&update, &inputs(1, 2)) {
        assert_eq!(
            out,
            Ok(vec![OutputValue::ArrayI64(vec![0, 1, 2, 3, 4, -7])])
        );
    }
}

/// A gather or scatter is accounted as one copy of the lanes it *wrote*:
/// a lane checked mode skipped as out of bounds moved no bytes.
#[test]
fn gather_and_scatter_count_the_lanes_they_wrote() {
    let kernels = KernelRegistry::new();
    let src = InputValue::ArrayF32(vec![1.0, 2.0, 3.0, 4.0]);
    let idx = |bad: bool| InputValue::ArrayI64(vec![3, if bad { 9 } else { 0 }, 1]);

    let mut b = Builder::new("gather3");
    let xs = b.array_param("gxs", ElemType::F32, vec![c(4)]);
    let is = b.array_param("gis", ElemType::I64, vec![c(3)]);
    let mut body = b.block();
    let g = body.gather("g", xs, is);
    let gather = b.finish(body.finish(vec![g]));

    let mut b = Builder::new("scatter3");
    let xs = b.array_param("sxs", ElemType::F32, vec![c(4)]);
    let is = b.array_param("sis", ElemType::I64, vec![c(3)]);
    let vs = b.array_param("svs", ElemType::F32, vec![c(3)]);
    let mut body = b.block();
    let s = body.scatter("s", xs, is, vs);
    let scatter = b.finish(body.finish(vec![s]));
    let vals = InputValue::ArrayF32(vec![7.0, 8.0, 9.0]);

    for (prog, extra) in [(&gather, None), (&scatter, Some(vals))] {
        let compiled = compile(prog, &Options::default()).expect("compile");
        for bad in [false, true] {
            let mut inputs = vec![src.clone(), idx(bad)];
            inputs.extend(extra.clone());
            let (_, stats) = run_program(&compiled.program, &inputs, &kernels, Mode::Checked, 1)
                .expect("checked mode skips the lane");
            let lanes = if bad { 2 } else { 3 };
            assert_eq!(stats.bytes_copied, lanes * 4, "{} bad={bad}", prog.name);
            assert_eq!(stats.num_copies, 1);
            assert_eq!(stats.diagnostics.len(), bad as usize);
            // Outside checked mode the bad lane fails the run.
            let memory = run_program(&compiled.program, &inputs, &kernels, Mode::Memory, 1);
            assert_eq!(is_refusal(&memory), bad, "{} bad={bad}", prog.name);
        }
    }
}

/// Scalar expressions are lowered to straight-line code over numbered
/// values and printed by decoding it: the plan must show the expression
/// that was written — operand order, nesting, the coordinates of an index
/// and of a point update, both arms of a `select` joined into one value —
/// whichever operands were leaves.
#[test]
fn flat_scalar_code_prints_as_the_expression_it_lowers() {
    use arraymem_ir::{BinOp, UnOp};
    let mut b = Builder::new("shapes");
    let k = b.scalar_param("fk", ElemType::I64);
    let m = b.array_param("fm", ElemType::F32, vec![c(2), c(3)]);
    let mut body = b.block();
    let (vk, one) = (ScalarExp::var(k), ScalarExp::i64(1));
    let bin = ScalarExp::bin;
    let at = |i: ScalarExp, j: ScalarExp| ScalarExp::Index(m, vec![i, j]);
    // (compound op compound), leaf on either side, an index whose
    // coordinates are a compound and a leaf, a nested select.
    let sum = bin(
        BinOp::Add,
        bin(BinOp::Mul, vk.clone(), one.clone()),
        bin(
            BinOp::Sub,
            one.clone(),
            ScalarExp::un(UnOp::Neg, vk.clone()),
        ),
    );
    let x = body.scalar("x", ElemType::I64, sum);
    let elem = at(
        bin(BinOp::Rem, ScalarExp::var(x), ScalarExp::i64(2)),
        one.clone(),
    );
    let pick = ScalarExp::Select(
        Box::new(bin(BinOp::Lt, vk.clone(), one.clone())),
        Box::new(bin(BinOp::Mul, elem, ScalarExp::f32(2.0))),
        Box::new(ScalarExp::Select(
            Box::new(vk.clone()),
            Box::new(ScalarExp::f32(0.5)),
            Box::new(at(one.clone(), bin(BinOp::Add, vk.clone(), one.clone()))),
        )),
    );
    let y = body.scalar("y", ElemType::F32, pick);
    let point = vec![bin(BinOp::Min, vk.clone(), one.clone()), ScalarExp::i64(0)];
    let m2 = body.update_scalar("m2", m, point, ScalarExp::var(y));
    let prog = b.finish(body.finish(vec![m2]));
    let compiled = compile(&prog, &Options::default()).expect("compile");
    let plan =
        crate::plan::lower_plan_full(&compiled.program, &KernelRegistry::new(), &[], &[], &[])
            .expect("lower")
            .pretty();
    for expected in [
        "<- ((%0 Mul I64(1)) Add (I64(1) Sub Neg(%0)))",
        "<- select((%0 Lt I64(1)), (%1[(%3 Rem I64(2)), I64(1)] Mul F32(2.0)), \
         select(%0, F32(0.5), %1[I64(1), (%0 Add I64(1))]))",
        "point[(%0 Min I64(1)), I64(0)] src %4",
    ] {
        assert!(plan.contains(expected), "no `{expected}` in:\n{plan}");
    }
}

/// Outputs bit for bit (NaN as `nan`: which NaN an operation yields is the
/// hardware's choice), or the error, plus any sanitizer findings.
fn rendered(r: &Result<(Vec<OutputValue>, crate::Stats), String>) -> String {
    fn f32s(v: &[f32]) -> Vec<String> {
        let bits = |x: &f32| match x.is_nan() {
            true => "nan".to_string(),
            false => format!("{:08x}", x.to_bits()),
        };
        v.iter().map(bits).collect()
    }
    fn f64s(v: &[f64]) -> Vec<String> {
        let bits = |x: &f64| match x.is_nan() {
            true => "nan".to_string(),
            false => format!("{:016x}", x.to_bits()),
        };
        v.iter().map(bits).collect()
    }
    match r {
        Err(e) => format!("! {e}"),
        Ok((out, stats)) => {
            let mut s = String::new();
            for o in out {
                s += &match o {
                    OutputValue::ArrayF32(v) => format!("[f32 {}]", f32s(v).join(" ")),
                    OutputValue::ArrayF64(v) => format!("[f64 {}]", f64s(v).join(" ")),
                    OutputValue::ArrayI64(v) => format!("[i64 {v:?}]"),
                    scalar => format!("{scalar:?}"),
                };
            }
            if !stats.diagnostics.is_empty() {
                s += &format!(" diagnostics={:?}", stats.diagnostics);
            }
            s
        }
    }
}

/// `prog` in `Pure`, and what `compile` makes of it in `Memory` and
/// `Checked`.
fn in_three_modes(
    prog: &Program,
    compiled: &arraymem_core::Compiled,
    inputs: &[InputValue],
) -> [Result<(Vec<OutputValue>, crate::Stats), String>; 3] {
    let kernels = KernelRegistry::new();
    let checks: Vec<_> = compiled.report.checks().cloned().collect();
    let mut session = crate::Session::new();
    let h = session
        .prepare_full(
            &compiled.program,
            &kernels,
            &checks,
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .expect("prepare");
    [
        run_program(prog, inputs, &kernels, Mode::Pure, 1),
        session.run_plan(h, inputs, &kernels, Mode::Memory, 1),
        session.run_plan(h, inputs, &kernels, Mode::Checked, 1),
    ]
}

/// Regression: a lambda map's width is the program's and its inputs'
/// lengths are the request's, and nothing compared them. A map wider than
/// an input ran off the end of the block (a panic in the view's assert —
/// under the server, with the tenant's mutex held) or, over a slice of a
/// larger block, read the cells behind the slice in `Memory` and `Checked`
/// without a word from the sanitizer. One check per map execution, every
/// mode; a map no wider than its inputs runs.
#[test]
fn map_wider_than_its_input_is_an_error_not_a_panic() {
    use arraymem_ir::BinOp;
    let square = |lb: &mut arraymem_ir::builder::BlockBuilder, ps: &[Var]| {
        let x = ScalarExp::var(ps[0]);
        vec![lb.scalar(
            "sq",
            ElemType::F32,
            ScalarExp::bin(BinOp::Mul, x.clone(), x),
        )]
    };
    // `ys = map (\x -> x * x) xs` over `m` elements of `xs: [n]`: all of
    // it, its first three elements as a slice, and beside a second input.
    let build = |shape: usize| {
        let mut b = Builder::new("wide_map");
        let n = b.scalar_param("wn", ElemType::I64);
        let m = b.scalar_param("wm", ElemType::I64);
        let xs = b.array_param("wxs", ElemType::F32, vec![p(n)]);
        let zs = b.array_param("wzs", ElemType::F32, vec![c(3)]);
        let mut body = b.block();
        let inputs = match shape {
            0 => vec![xs],
            1 => {
                let first = TripletSlice::range(c(0), c(3), c(1));
                vec![body.slice("head", xs, Transform::Slice(vec![first]))]
            }
            _ => vec![xs, zs],
        };
        let ys = body.map_lambda("wys", p(m), inputs, ElemType::F32, square);
        b.finish(body.finish(vec![ys]))
    };
    let inputs = |n: usize, m: i64| {
        vec![
            InputValue::I64(n as i64),
            InputValue::I64(m),
            InputValue::ArrayF32((1..=n).map(|i| i as f32).collect()),
            InputValue::ArrayF32(vec![1.0, 2.0, 3.0]),
        ]
    };
    for (shape, n) in [(0, 3), (1, 6), (2, 6)] {
        let prog = build(shape);
        let compiled = compile(&prog, &Options::default()).expect("compile");
        for (mode, r) in ["pure", "memory", "checked"].iter().zip(in_three_modes(
            &prog,
            &compiled,
            &inputs(n, 5),
        )) {
            let err = r.expect_err("five elements of three");
            assert_eq!(
                err, "map of width 5 over an input of 3 elements",
                "shape {shape} ({mode})"
            );
        }
        for m in [3, 2, 0] {
            let want = OutputValue::ArrayF32((1..=m).map(|i| (i * i) as f32).collect());
            for r in in_three_modes(&prog, &compiled, &inputs(n, m)) {
                assert_eq!(
                    r.expect("no wider than its inputs").0,
                    std::slice::from_ref(&want)
                );
            }
        }
    }
}

/// What the strip test's bodies are made of: a leaf, or an operator over
/// earlier trees.
#[derive(Clone, Debug)]
enum Tree {
    /// Parameter `k` of the lambda (f32, f64, i64).
    Param(usize),
    /// Outer scalar `k` (f32, f64, i64, bool): one value for the map.
    Outer(usize),
    Const(arraymem_ir::Constant),
    /// The value of statement `k` of the body.
    Local(usize),
    Bin(arraymem_ir::BinOp, Box<Tree>, Box<Tree>),
    Un(arraymem_ir::UnOp, Box<Tree>),
}

/// One lambda body: statements `(declared type, expression)`; the last is
/// the map's result.
type Body = Vec<(ElemType, Tree)>;

const ELEMS: [ElemType; 4] = [ElemType::F32, ElemType::F64, ElemType::I64, ElemType::Bool];

/// The program every strip-test body runs in: four maps of the same body
/// over `w` elements, each over three inputs (f32, f64, i64) in a rotation
/// of four layouts — a contiguous prefix of a longer block, every other
/// element, reversed, and a row of the transposed `[w][2]` view.
fn strip_program(body: &Body) -> Program {
    let mut b = Builder::new("strips");
    let w = b.scalar_param("sw", ElemType::I64);
    let outers: Vec<Var> = ELEMS
        .iter()
        .map(|e| b.scalar_param(&format!("s{e:?}"), *e))
        .collect();
    let arrays: Vec<Var> = ELEMS[..3]
        .iter()
        .map(|e| b.array_param(&format!("a{e:?}"), *e, vec![c(2) * p(w)]))
        .collect();
    let mut blk = b.block();
    let mut layouts: Vec<Vec<Var>> = Vec::new();
    for &a in &arrays {
        let slice = |blk: &mut arraymem_ir::builder::BlockBuilder, name, start: Poly, step| {
            let t = TripletSlice::range(start, p(w), c(step));
            blk.slice(name, a, Transform::Slice(vec![t]))
        };
        let prefix = slice(&mut blk, "prefix", c(0), 1);
        let strided = slice(&mut blk, "strided", c(0), 2);
        let reversed = slice(&mut blk, "reversed", p(w) - c(1), -1);
        let pairs = blk.transform("pairs", a, Transform::Reshape(vec![p(w), c(2)]));
        let cols = blk.transform("cols", pairs, Transform::Permute(vec![1, 0]));
        let odd = vec![TripletSlice::Fix(c(1)), TripletSlice::full(p(w))];
        let row = blk.slice("row", cols, Transform::Slice(odd));
        layouts.push(vec![prefix, strided, reversed, row]);
    }
    fn exp(t: &Tree, ps: &[Var], outers: &[Var], locals: &[Var]) -> ScalarExp {
        match t {
            Tree::Param(k) => ScalarExp::var(ps[*k]),
            Tree::Outer(k) => ScalarExp::var(outers[*k]),
            Tree::Const(k) => ScalarExp::Const(*k),
            Tree::Local(k) => ScalarExp::var(locals[*k]),
            Tree::Bin(op, a, b) => {
                ScalarExp::bin(*op, exp(a, ps, outers, locals), exp(b, ps, outers, locals))
            }
            Tree::Un(op, a) => ScalarExp::un(*op, exp(a, ps, outers, locals)),
        }
    }
    let out_elem = body.last().expect("a statement").0;
    let results: Vec<Var> = (0..4)
        .map(|m| {
            let inputs = (0..3).map(|k| layouts[k][(m + k) % 4]).collect();
            blk.map_lambda("r", p(w), inputs, out_elem, |lb, ps| {
                let mut locals = Vec::new();
                for (elem, t) in body {
                    let v = lb.scalar("t", *elem, exp(t, ps, &outers, &locals));
                    locals.push(v);
                }
                vec![*locals.last().unwrap()]
            })
        })
        .collect();
    b.finish(blk.finish(results))
}

/// Inputs of `strip_program` at width `w`: edge-case floats recurring
/// through the arrays, small integers — with a zero and the extremes
/// when `wild`.
fn strip_inputs(w: usize, seed: u64, wild: bool) -> Vec<InputValue> {
    let mut r = arraymem_symbolic::Rng64::new(seed);
    let f32s = [1.5, -0.0, f32::NAN, 3.0e38, -2.25, f32::INFINITY, 0.0, 7.0];
    let f64s = [
        -2.25,
        0.5,
        f64::NAN,
        1.0e300,
        0.1,
        -0.0,
        f64::NEG_INFINITY,
        3.0,
    ];
    let ints = [7, -1, 3, -3, 2, 9, -8, 1];
    let wild_ints = [0, i64::MAX, i64::MIN, 5];
    let int = |r: &mut arraymem_symbolic::Rng64| match wild && r.chance(0.002) {
        true => wild_ints[r.usize_in(4)],
        false => ints[r.usize_in(8)],
    };
    vec![
        InputValue::I64(w as i64),
        InputValue::F32(f32s[r.usize_in(8)]),
        InputValue::F64(f64s[r.usize_in(8)]),
        InputValue::I64(ints[r.usize_in(8)]),
        InputValue::Bool(r.chance(0.5)),
        InputValue::ArrayF32((0..2 * w).map(|_| f32s[r.usize_in(8)]).collect()),
        InputValue::ArrayF64((0..2 * w).map(|_| f64s[r.usize_in(8)]).collect()),
        InputValue::ArrayI64((0..2 * w).map(|_| int(&mut r)).collect()),
    ]
}

/// Strips are an implementation of the element-wise evaluator, not a
/// second semantics: over every binary operator × operand-type pair and
/// every unary operator × type, and over 200 seeded straight-line bodies
/// (parameters, broadcast outer scalars and constants of all four types,
/// declared types forcing every coercion), at widths around the strip
/// length and over contiguous, strided, reversed and transposed inputs,
/// `Memory` and `Checked` return what `Pure` returns — bit for bit, or
/// error for error.
#[test]
fn strips_agree_with_the_elementwise_evaluator() {
    use arraymem_ir::{BinOp, Constant, UnOp};
    use arraymem_symbolic::Rng64;
    const S: usize = crate::strip::STRIP;
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
    let constant = |ty: usize, r: &mut Rng64| {
        Tree::Const(match ty {
            0 => Constant::F32([0.5, -2.0, 3.0][r.usize_in(3)]),
            1 => Constant::F64([0.25, -1.5, 2.0][r.usize_in(3)]),
            2 => Constant::I64([2, -3, 5][r.usize_in(3)]),
            _ => Constant::Bool(r.chance(0.5)),
        })
    };
    // A leaf of type `ty` (f32, f64, i64, bool): a lane, a broadcast or a
    // constant. Statement 0 of every body is a boolean lane.
    let leaf = |ty: usize, r: &mut Rng64| match r.usize_in(4) {
        0 => constant(ty, r),
        1 => Tree::Outer(ty),
        _ if ty == 3 => Tree::Local(0),
        _ => Tree::Param(ty),
    };
    let flag = (
        ElemType::Bool,
        Tree::Bin(
            BinOp::Lt,
            Box::new(Tree::Param(2)),
            Box::new(Tree::Const(Constant::I64(3))),
        ),
    );
    let mut r = Rng64::new(0x0057_1295);
    let mut bodies: Vec<(Body, &[usize])> = Vec::new();
    // The tables: typing is per map, so two widths see all of it.
    let table_widths: &[usize] = &[1, S + 1];
    for (k, op) in BIN_OPS.iter().enumerate() {
        for ta in 0..4 {
            for tb in 0..4 {
                let e = Tree::Bin(*op, Box::new(leaf(ta, &mut r)), Box::new(leaf(tb, &mut r)));
                let declared = ELEMS[(k + ta + tb) % 4];
                bodies.push((vec![flag.clone(), (declared, e)], table_widths));
            }
        }
    }
    for (k, op) in UN_OPS.iter().enumerate() {
        for ty in 0..4 {
            let e = Tree::Un(*op, Box::new(leaf(ty, &mut r)));
            bodies.push((vec![flag.clone(), (ELEMS[(k + ty) % 4], e)], table_widths));
        }
    }
    // Seeded bodies, steered towards well-typed (the type of a tree, as
    // far as steering needs it: 0..4 as above).
    fn type_of(t: &Tree, body: &Body) -> usize {
        let of_elem = |e: ElemType| ELEMS.iter().position(|x| *x == e).unwrap();
        match t {
            Tree::Param(k) | Tree::Outer(k) => *k,
            Tree::Const(Constant::F32(_)) => 0,
            Tree::Const(Constant::F64(_)) => 1,
            Tree::Const(Constant::I64(_)) => 2,
            Tree::Const(Constant::Bool(_)) => 3,
            Tree::Local(k) => of_elem(body[*k].0),
            Tree::Bin(op, a, b) => {
                let (ta, tb) = (type_of(a, body), type_of(b, body));
                let arith = (*op as usize) < BinOp::Eq as usize;
                match (ta.min(tb), arith) {
                    (t @ (0 | 1), true) => t,
                    (_, true) => 2,
                    _ => 3,
                }
            }
            Tree::Un(op, a) => match (op, type_of(a, body)) {
                (UnOp::Not, _) => 3,
                (UnOp::ToF32, _) => 0,
                (UnOp::ToF64, _) => 1,
                (UnOp::ToI64, _) => 2,
                (UnOp::Sqrt | UnOp::Exp | UnOp::Log, t) => t.min(1).max((t == 1) as usize),
                (_, t) => t,
            },
        }
    }
    fn tree(
        r: &mut Rng64,
        depth: usize,
        body: &Body,
        leaf: &dyn Fn(usize, &mut Rng64) -> Tree,
    ) -> Tree {
        if depth == 0 || r.chance(0.25) {
            return match r.usize_in(5) {
                0 if body.len() > 1 => Tree::Local(1 + r.usize_in(body.len() - 1)),
                _ => leaf(r.usize_in(4), r),
            };
        }
        if r.chance(0.3) {
            let a = tree(r, depth - 1, body, leaf);
            let ops: &[UnOp] = match type_of(&a, body) {
                _ if r.chance(0.05) => &UN_OPS,
                3 => &[UnOp::Not, UnOp::ToF32, UnOp::ToI64, UnOp::Sqrt],
                2 => &[
                    UnOp::Neg,
                    UnOp::Not,
                    UnOp::Abs,
                    UnOp::ToF64,
                    UnOp::ToF32,
                    UnOp::Exp,
                ],
                _ => &[
                    UnOp::Neg,
                    UnOp::Abs,
                    UnOp::Sqrt,
                    UnOp::Log,
                    UnOp::ToI64,
                    UnOp::ToF64,
                ],
            };
            return Tree::Un(ops[r.usize_in(ops.len())], Box::new(a));
        }
        let (a, b) = (
            tree(r, depth - 1, body, leaf),
            tree(r, depth - 1, body, leaf),
        );
        let ops: &[BinOp] = match (type_of(&a, body), type_of(&b, body)) {
            _ if r.chance(0.05) => &BIN_OPS,
            (3, 3) => &[BinOp::And, BinOp::Or, BinOp::Eq, BinOp::Ne],
            (0 | 1, _) | (_, 0 | 1) => &BIN_OPS[..11],
            // Integer products of products overflow soon enough.
            _ => &BIN_OPS,
        };
        Tree::Bin(ops[r.usize_in(ops.len())], Box::new(a), Box::new(b))
    }
    let all_widths: &[usize] = &[0, 1, S - 1, S, S + 1, 3 * S + 7];
    for _ in 0..200 {
        let mut body: Body = vec![flag.clone()];
        for _ in 0..r.usize_in(6) + 1 {
            let t = tree(&mut r, 2, &body, &leaf);
            // `bool` only takes what has a truth value.
            let declared = match type_of(&t, &body) {
                2 | 3 => ELEMS[r.usize_in(4)],
                _ if r.chance(0.03) => ElemType::Bool,
                _ => ELEMS[r.usize_in(3)],
            };
            body.push((declared, t));
        }
        bodies.push((body, all_widths));
    }

    let (mut runs, mut in_strips, mut refused) = (0, 0, 0);
    for (id, (body, widths)) in bodies.iter().enumerate() {
        let prog = strip_program(body);
        let compiled = compile(&prog, &Options::default()).expect("compile");
        for &w in *widths {
            let inputs = strip_inputs(w, id as u64, id % 4 == 3);
            let [pure, memory, checked] = in_three_modes(&prog, &compiled, &inputs);
            let want = rendered(&pure);
            assert_eq!(
                rendered(&memory),
                want,
                "memory, body {id} {body:?}, width {w}"
            );
            assert_eq!(
                rendered(&checked),
                want,
                "checked, body {id} {body:?}, width {w}"
            );
            runs += 1;
            refused += is_refusal(&pure) as usize;
            if let (Ok((_, m)), Ok((_, ch))) = (&memory, &checked) {
                assert_eq!(m.lambda_elems_elementwise, ch.lambda_elems_elementwise);
                assert_eq!(m.kernel_launches, 4 * w as u64);
                in_strips += (m.lambda_elems_elementwise == 0) as usize;
            }
            let pure_counts = pure.map_or(0, |(_, s)| s.lambda_elems_elementwise);
            assert_eq!(
                pure_counts, 0,
                "the oracle runs no strip code and counts none"
            );
        }
    }
    // The bodies are straight lines: what does not run in strips is what
    // the evaluator refuses (a type error, a lane without a value).
    assert!(
        in_strips * 10 >= runs * 7 && refused * 20 >= runs,
        "{runs} runs: {in_strips} all in strips, {refused} refused"
    );
}

/// Which error a map reports is decided by element order, not operator
/// order: lane `S + 3` overflows in the body's second statement and lane
/// `S + 5` divides by zero in its first. A strip evaluates the first
/// statement for every lane before the second for any — and still reports
/// the overflow, because a strip in which any lane has no value is re-run
/// element by element from inputs it has not touched.
#[test]
fn strips_report_the_error_of_the_first_failing_element() {
    use arraymem_ir::BinOp;
    const S: usize = crate::strip::STRIP;
    let n = 3 * S + 7;
    let mut b = Builder::new("precedence");
    let xs = b.array_param("pxs", ElemType::I64, vec![c(n as i64)]);
    let ys = b.array_param("pys", ElemType::I64, vec![c(n as i64)]);
    let mut body = b.block();
    let r = body.map_lambda("pr", c(n as i64), vec![xs, ys], ElemType::I64, |lb, ps| {
        let (x, y) = (ScalarExp::var(ps[0]), ScalarExp::var(ps[1]));
        let q = lb.scalar(
            "q",
            ElemType::I64,
            ScalarExp::bin(BinOp::Div, ScalarExp::i64(100), x),
        );
        let t = ScalarExp::bin(BinOp::Add, y, ScalarExp::i64(1));
        let t = lb.scalar("t", ElemType::I64, t);
        let sum = ScalarExp::bin(BinOp::Add, ScalarExp::var(q), ScalarExp::var(t));
        vec![lb.scalar("s", ElemType::I64, sum)]
    });
    let prog = b.finish(body.finish(vec![r]));
    let compiled = compile(&prog, &Options::default()).expect("compile");
    let (mut xs, mut ys) = (vec![5i64; n], vec![1i64; n]);
    xs[S + 5] = 0;
    ys[S + 3] = i64::MAX;
    let inputs = [InputValue::ArrayI64(xs.clone()), InputValue::ArrayI64(ys)];
    for r in in_three_modes(&prog, &compiled, &inputs) {
        let overflow = format!("integer Add of {} by 1 overflows", i64::MAX);
        assert_eq!(r.expect_err("two lanes have no value"), overflow);
    }
    // Without the overflow it is the quotient's turn, and without either
    // the strip's lanes are the evaluator's.
    let inputs = [InputValue::ArrayI64(xs), InputValue::ArrayI64(vec![1; n])];
    for r in in_three_modes(&prog, &compiled, &inputs) {
        assert_eq!(
            r.expect_err("100 / 0"),
            "integer Div of 100 by 0 is undefined"
        );
    }
    let inputs = [
        InputValue::ArrayI64(vec![5; n]),
        InputValue::ArrayI64(vec![1; n]),
    ];
    for r in in_three_modes(&prog, &compiled, &inputs) {
        let (out, stats) = r.expect("every lane has a value");
        assert_eq!(out, [OutputValue::ArrayI64(vec![22; n])]);
        assert_eq!(stats.lambda_elems_elementwise, 0);
    }
}

/// A result short-circuited onto its own input — `a[0;n;2] = map f
/// a[0;n;2]`, built in place — still runs in strips: the input goes
/// through lane scratch, element `i` lands on element `i`. A result that
/// shares its block with an input it is *not* (Fig. 1: the diagonal
/// written, the first row read) orders reads and writes by element, and
/// runs element by element.
#[test]
fn strips_go_through_scratch_when_the_result_lands_on_its_input() {
    use arraymem_ir::BinOp;
    const S: usize = crate::strip::STRIP;
    let n = 2 * S + 5;
    let mut b = Builder::new("onto_itself");
    let a = b.array_param("oa", ElemType::F32, vec![c(2 * n as i64)]);
    let mut body = b.block();
    let evens = || TripletSlice::range(c(0), c(n as i64), c(2));
    let xs = body.slice("oxs", a, Transform::Slice(vec![evens()]));
    let ys = body.map_lambda("oys", c(n as i64), vec![xs], ElemType::F32, |lb, ps| {
        let x = ScalarExp::var(ps[0]);
        let sq = ScalarExp::bin(BinOp::Mul, x.clone(), x);
        let e = ScalarExp::bin(BinOp::Add, sq, ScalarExp::f32(1.0));
        vec![lb.scalar("y", ElemType::F32, e)]
    });
    let a2 = body.update("oa2", a, SliceSpec::Triplet(vec![evens()]), ys);
    let prog = b.finish(body.finish(vec![a2]));
    let compiled = compile(&prog, &Options::optimized()).expect("compile");
    let data: Vec<f32> = (0..2 * n).map(|i| i as f32 * 0.5).collect();
    let inputs = [InputValue::ArrayF32(data.clone())];
    let [pure, memory, checked] = in_three_modes(&prog, &compiled, &inputs);
    let want: Vec<f32> = (0..2 * n)
        .map(|i| match i % 2 {
            0 => data[i] * data[i] + 1.0,
            _ => data[i],
        })
        .collect();
    assert_eq!(pure.expect("pure").0, [OutputValue::ArrayF32(want.clone())]);
    for r in [memory, checked] {
        let (out, stats) = r.expect("in place");
        assert_eq!(out, [OutputValue::ArrayF32(want.clone())]);
        assert!(stats.diagnostics.is_empty(), "{:?}", stats.diagnostics);
        assert_eq!(stats.bytes_elided, 4 * n as u64, "built in its destination");
        assert_eq!(stats.lambda_elems_elementwise, 0);
    }

    let (prog, env) = fig1_left();
    let compiled = compile(&prog, &Options::optimized().with_env(env)).expect("compile");
    let n = S + 9;
    let data: Vec<f32> = (0..n * n).map(|i| (i % 97) as f32).collect();
    let inputs = [InputValue::I64(n as i64), InputValue::ArrayF32(data)];
    let [pure, memory, checked] = in_three_modes(&prog, &compiled, &inputs);
    let want = pure.expect("pure").0;
    for r in [memory, checked] {
        let (out, stats) = r.expect("in place");
        assert_eq!(out, want);
        assert_eq!(stats.bytes_elided, 4 * n as u64, "built in its destination");
        assert_eq!(stats.lambda_elems_elementwise, n as u64);
    }
}

/// Gather and scatter lanes outside the sanitizer check a strip of
/// indices, then move it. A stray index in the middle strip is still the
/// first stray *lane*'s error, in the lane loop's words (and under the
/// sanitizer, its finding); duplicate indices either side of a strip
/// boundary still leave the last write; and an index array that is a view
/// of the block being scattered into is still read lane by lane, as the
/// writes change it.
#[test]
fn lane_strips_check_every_index_before_they_move() {
    const S: usize = crate::strip::STRIP;
    let n = 3 * S;
    let mut b = Builder::new("gather_far");
    let xs = b.array_param("gxs", ElemType::F32, vec![c(10)]);
    let is = b.array_param("gis", ElemType::I64, vec![c(n as i64)]);
    let mut body = b.block();
    let g = body.gather("g", xs, is);
    let gather = b.finish(body.finish(vec![g]));
    let compiled = compile(&gather, &Options::default()).expect("compile");
    let mut idx: Vec<i64> = (0..n as i64).map(|k| k % 10).collect();
    let xs_data: Vec<f32> = (0..10).map(|i| i as f32).collect();
    let inputs = |idx: &[i64]| {
        [
            InputValue::ArrayF32(xs_data.clone()),
            InputValue::ArrayI64(idx.to_vec()),
        ]
    };
    let want = OutputValue::ArrayF32(idx.iter().map(|&j| j as f32).collect());
    for r in in_three_modes(&gather, &compiled, &inputs(&idx)) {
        assert_eq!(
            r.expect("every index inside").0,
            std::slice::from_ref(&want)
        );
    }
    (idx[S + 17], idx[2 * S + 1]) = (99, -4);
    let [pure, memory, checked] = in_three_modes(&gather, &compiled, &inputs(&idx));
    let stray = format!(
        "gather index 99 out of bounds for 10 elements (lane {})",
        S + 17
    );
    assert_eq!(pure.expect_err("lane S + 17"), stray);
    assert_eq!(memory.expect_err("lane S + 17"), stray);
    let findings = checked.expect("the sanitizer skips the lane").1.diagnostics;
    let lanes: Vec<(i64, i64, i64)> = findings
        .iter()
        .map(|d| match d {
            crate::Diagnostic::IndexOutOfBounds {
                lane,
                index,
                extent,
                ..
            } => (*lane, *index, *extent),
            other => panic!("{other}"),
        })
        .collect();
    assert_eq!(lanes, [(S as i64 + 17, 99, 10), (2 * S as i64 + 1, -4, 10)]);

    // Lanes `S - 1`, `S` and `2S - 1` all write element 1.
    let mut b = Builder::new("scatter_dups");
    let dst = b.array_param("sdst", ElemType::I64, vec![c(4)]);
    let is = b.array_param("sis", ElemType::I64, vec![c(2 * S as i64)]);
    let vs = b.array_param("svs", ElemType::I64, vec![c(2 * S as i64)]);
    let mut body = b.block();
    let s = body.scatter("s", dst, is, vs);
    let scatter = b.finish(body.finish(vec![s]));
    let compiled = compile(&scatter, &Options::default()).expect("compile");
    let mut idx = vec![3i64; 2 * S];
    (idx[S - 1], idx[S], idx[2 * S - 1]) = (1, 1, 1);
    let inputs = [
        InputValue::ArrayI64(vec![-1; 4]),
        InputValue::ArrayI64(idx),
        InputValue::ArrayI64((0..2 * S as i64).collect()),
    ];
    for r in in_three_modes(&scatter, &compiled, &inputs) {
        let last = 2 * S as i64 - 1;
        let want = OutputValue::ArrayI64(vec![-1, last, -1, last - 1]);
        assert_eq!(r.expect("every index inside").0, [want]);
    }

    // `idx` is the first two elements of the destination: lane 0 writes
    // 99 where lane 1 then finds its index.
    let mut b = Builder::new("scatter_self");
    let dst = b.array_param("tdst", ElemType::I64, vec![c(6)]);
    let vs = b.array_param("tvs", ElemType::I64, vec![c(2)]);
    let mut body = b.block();
    let first_two = TripletSlice::range(c(0), c(2), c(1));
    let is = body.slice("tis", dst, Transform::Slice(vec![first_two]));
    let s = body.scatter("ts", dst, is, vs);
    let scatter = b.finish(body.finish(vec![s]));
    let compiled = compile(&scatter, &Options::default()).expect("compile");
    let inputs = |v0| {
        [
            InputValue::ArrayI64(vec![1, 0, 5, 5, 5, 5]),
            InputValue::ArrayI64(vec![v0, 9]),
        ]
    };
    let kernels = KernelRegistry::new();
    let run = |v0| run_program(&compiled.program, &inputs(v0), &kernels, Mode::Memory, 1);
    assert_eq!(
        run(3).expect("lane 1 goes where lane 0 said").0,
        [OutputValue::ArrayI64(vec![1, 3, 5, 9, 5, 5])]
    );
    assert_eq!(
        run(99).expect_err("lane 1 goes nowhere"),
        "scatter index 99 out of bounds for 6 elements (lane 1)"
    );
}
