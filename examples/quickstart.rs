//! Quickstart: build the paper's Fig. 1 (left) program — add to each
//! diagonal element of a matrix the corresponding element of the first
//! row — compile it with and without array short-circuiting, run both,
//! and watch the update copy disappear.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use arraymem_core::{compile, Options};
use arraymem_exec::{InputValue, KernelRegistry, Mode, Session};
use arraymem_ir::{BinOp, Builder, ElemType, ScalarExp, SliceSpec};
use arraymem_lmad::{Dim, Lmad, Transform};
use arraymem_symbolic::{Env, Poly};

fn main() {
    // ---- 1. Build the program with the IR builder.
    let mut b = Builder::new("diag_plus_first_row");
    let n = b.scalar_param("n", ElemType::I64);
    let a = b.array_param("A", ElemType::F32, vec![Poly::var(n) * Poly::var(n)]);
    let mut body = b.block();

    // The diagonal of the flattened n×n matrix, as a generalized LMAD
    // slice: offset 0, n points, stride n+1.
    let diag_lmad = Lmad::new(
        0,
        vec![Dim::new(Poly::var(n), Poly::var(n) + Poly::constant(1))],
    );
    let diag = body.slice("diag", a, Transform::LmadSlice(diag_lmad.clone()));
    let row = body.slice(
        "row",
        a,
        Transform::LmadSlice(Lmad::new(0, vec![Dim::new(Poly::var(n), 1)])),
    );
    // X = map2 (λd r → d + r) diag row
    let x = body.map_lambda(
        "X",
        Poly::var(n),
        vec![diag, row],
        ElemType::F32,
        |lb, ps| {
            let s = lb.scalar(
                "s",
                ElemType::F32,
                ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::var(ps[1])),
            );
            vec![s]
        },
    );
    // A[diagonal] = X
    let a2 = body.update("A2", a, SliceSpec::Lmad(diag_lmad), x);
    let program = b.finish(body.finish(vec![a2]));

    println!("=== Source program ===");
    println!("{}", arraymem_ir::pretty::program_to_string(&program));

    // ---- 2. Compile twice: without and with short-circuiting.
    let mut env = Env::new();
    env.assume_ge(n, 1);
    let unopt = compile(&program, &Options::default().with_env(env.clone())).unwrap();
    let opt = compile(&program, &Options::optimized().with_env(env)).unwrap();

    println!("=== Short-circuiting report ===");
    for c in &opt.report.candidates {
        println!(
            "  {} -> {} ({})",
            c.root,
            if c.succeeded {
                "SHORT-CIRCUITED"
            } else {
                "kept"
            },
            c.reason
        );
    }

    println!("\n=== Optimized program (X now lives in A's memory) ===");
    println!("{}", arraymem_ir::pretty::program_to_string(&opt.program));

    // ---- 3. Prepare (lower to an executable plan) and run both.
    // `Session::prepare_full` takes the compiled program together with
    // the records its compile produced — they are the compiler→executor
    // contract — and flattens it into a linear instruction stream once;
    // repeated runs replay the cached plan and recycle the previous run's
    // memory blocks.
    let nn = 6usize;
    let data: Vec<f32> = (0..nn * nn).map(|i| i as f32).collect();
    let inputs = vec![InputValue::I64(nn as i64), InputValue::ArrayF32(data)];
    let kernels = KernelRegistry::new();
    let mut session = Session::new();
    let mut prepare = |c: &arraymem_core::Compiled| {
        session
            .prepare_full(
                &c.program,
                &kernels,
                &[],
                &c.report.merges,
                &c.report.par_safety,
            )
            .unwrap()
    };
    let hu = prepare(&unopt);
    let ho = prepare(&opt);
    // A second prepare of the same program is a cache hit — no re-lowering.
    assert_eq!(prepare(&opt), ho);
    let (out_u, stats_u) = session
        .run_plan(hu, &inputs, &kernels, Mode::Memory, 1)
        .unwrap();
    let (out_o, stats_o) = session
        .run_plan(ho, &inputs, &kernels, Mode::Memory, 1)
        .unwrap();
    assert_eq!(out_u, out_o, "same results either way");
    assert_eq!(session.plan_stats().cache_hits, 1);

    println!("=== Execution statistics ===");
    for (label, stats) in [("unoptimized", &stats_u), ("optimized", &stats_o)] {
        let counters: Vec<String> = stats.counters().map(|(k, v)| format!("{k} {v}")).collect();
        println!("{label:<12} {}", counters.join(" | "));
    }
    println!(
        "\nThe update's {} copied bytes became {} — the map wrote the \
         diagonal of A directly.",
        stats_u.bytes_copied, stats_o.bytes_copied
    );
}
