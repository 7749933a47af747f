//! LocVolCalib (paper §VI-G; FinPar's local-volatility calibration).
//!
//! Batched Crank-Nicolson-style pricing: each option evolves a value grid
//! of `numX` points through `numT` implicit time steps, each solved with
//! the Thomas tridiagonal algorithm. The compiled program stages the
//! pipeline the way the functional source is written: an initial payoff
//! grid, a first batch of time steps into a fresh grid, and the remaining
//! steps into the result grid. The payoff grid is dead once the first
//! batch has consumed it, so the merge pass folds the result grid into
//! its allocation — the hand-written reference gets the same effect by
//! evolving one buffer in place.

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, Var};
use arraymem_symbolic::{Env, Poly};

fn p(v: Var) -> Poly {
    Poly::var(v)
}

/// Initial condition for one option: call payoff on the price grid `v`.
pub fn payoff_row(opt: i64, v: &mut [f32]) {
    let strike = 50.0 + opt as f32; // per-option strike (the "calibration" axis)
    let dx = 4.0 * strike / v.len() as f32;
    for (i, x) in v.iter_mut().enumerate() {
        *x = (i as f32 * dx - strike).max(0.0);
    }
}

/// Evolve one option's grid `v` through implicit time steps `t0..t1` of a
/// `num_t`-step schedule, with the caller's Thomas scratch `cp` and `dp`
/// (each as long as `v`). Shared by the kernels and the reference so all
/// versions perform identical arithmetic.
pub fn evolve_row(
    opt: i64,
    num_t: usize,
    (t0, t1): (usize, usize),
    v: &mut [f32],
    cp: &mut [f32],
    dp: &mut [f32],
) {
    let num_x = v.len();
    let strike = 50.0 + opt as f32;
    let dx = 4.0 * strike / num_x as f32;
    let dt = 1.0 / num_t as f32;
    for t in t0..t1 {
        // Local-volatility coefficient (varies over the grid and time).
        let tfrac = t as f32 * dt;
        let alpha = |i: usize| -> f32 {
            let x = i as f32 * dx;
            let sigma = 0.2 + 0.1 * (x / (4.0 * strike)) + 0.05 * tfrac;
            0.5 * sigma * sigma * dt / (dx * dx) * x.max(1.0)
        };
        // Implicit system: -a·v[i-1] + (1+2a)·v[i] - a·v[i+1] = v_old[i].
        let a0 = alpha(0);
        cp[0] = -a0 / (1.0 + 2.0 * a0);
        dp[0] = v[0] / (1.0 + 2.0 * a0);
        for i in 1..num_x {
            let a = alpha(i);
            let m = 1.0 + 2.0 * a + a * cp[i - 1];
            cp[i] = -a / m;
            dp[i] = (v[i] + a * dp[i - 1]) / m;
        }
        v[num_x - 1] = dp[num_x - 1];
        for i in (0..num_x - 1).rev() {
            v[i] = dp[i] - cp[i] * v[i + 1];
        }
    }
}

/// Hand-written imperative reference: one buffer evolved in place through
/// the full schedule, option after option.
pub fn reference(num_o: usize, num_x: usize, num_t: usize) -> Vec<f32> {
    let mut out = vec![0f32; num_o * num_x];
    let (mut cp, mut dp) = (vec![0f32; num_x], vec![0f32; num_x]);
    for (o, v) in out.chunks_exact_mut(num_x).enumerate() {
        payoff_row(o as i64, v);
        evolve_row(o as i64, num_t, (0, num_t), v, &mut cp, &mut dp);
    }
    out
}

pub fn register_kernels(reg: &mut KernelRegistry) {
    reg.register("lvc_payoff", |ctx| {
        let num_x = ctx.arg_i64(0) as usize;
        let out = ctx
            .rows_mut::<f32>()
            .expect("lvc_payoff: grid must be dense f32");
        for (o, row) in ctx.rows.clone().zip(out.chunks_exact_mut(num_x.max(1))) {
            payoff_row(o, row);
        }
    });
    // Half the time schedule per launch: `phase` 0 runs steps
    // `0..numT/2`, phase 1 runs `numT/2..numT` — sequential composition,
    // so the staged pipeline computes exactly what one fused solve would.
    reg.register("lvc_steps", |ctx| {
        let num_x = ctx.arg_i64(0) as usize;
        let num_t = ctx.arg_i64(1) as usize;
        let phase = ctx.arg_i64(2);
        let half = num_t / 2;
        let steps = if phase == 0 { (0, half) } else { (half, num_t) };
        let (grid, out) = (ctx.input::<f32>(0).zip(ctx.rows_mut::<f32>()))
            .expect("lvc_steps: grids must be dense f32");
        let (mut cp, mut dp) = (vec![0f32; num_x], vec![0f32; num_x]);
        for (o, v) in ctx.rows.clone().zip(out.chunks_exact_mut(num_x.max(1))) {
            v.copy_from_slice(&grid[o as usize * num_x..][..num_x]);
            evolve_row(o, num_t, steps, v, &mut cp, &mut dp);
        }
    });
}

pub fn program() -> (Program, Env) {
    let mut bld = Builder::new("locvolcalib");
    let num_o = bld.scalar_param("lvc_numO", ElemType::I64);
    let num_x = bld.scalar_param("lvc_numX", ElemType::I64);
    let num_t = bld.scalar_param("lvc_numT", ElemType::I64);
    let mut body = bld.block();
    // Stage 1: initial payoff grid.
    let grid0 = body.map_kernel(
        "grid0",
        "lvc_payoff",
        p(num_o),
        vec![p(num_x)],
        ElemType::F32,
        vec![],
        vec![ScalarExp::var(num_x)],
    );
    // Stage 2: first half of the time schedule, consuming the payoff.
    let grid_h = body.map_kernel(
        "gridH",
        "lvc_steps",
        p(num_o),
        vec![p(num_x)],
        ElemType::F32,
        vec![grid0],
        vec![
            ScalarExp::var(num_x),
            ScalarExp::var(num_t),
            ScalarExp::i64(0),
        ],
    );
    // Stage 3: remaining steps into the result grid. The payoff grid is
    // dead by now, so the merge pass can fold this allocation into it.
    let res = body.map_kernel(
        "res",
        "lvc_steps",
        p(num_o),
        vec![p(num_x)],
        ElemType::F32,
        vec![grid_h],
        vec![
            ScalarExp::var(num_x),
            ScalarExp::var(num_t),
            ScalarExp::i64(1),
        ],
    );
    let blk = body.finish(vec![res]);
    let mut env = Env::new();
    env.assume_ge(num_o, 1);
    env.assume_ge(num_x, 2);
    env.assume_ge(num_t, 1);
    (bld.finish(blk), env)
}

pub fn case(label: &str, num_o: usize, num_x: usize, num_t: usize, runs: usize) -> Case {
    let (program, env) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let inputs = vec![
        InputValue::I64(num_o as i64),
        InputValue::I64(num_x as i64),
        InputValue::I64(num_t as i64),
    ];
    Case {
        name: "locvolcalib".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels,
        reference: Box::new(move |_| {
            let t0 = std::time::Instant::now();
            let out = reference(num_o, num_x, num_t);
            (t0.elapsed(), vec![OutputValue::ArrayF32(out)])
        }),
        runs,
        tol: 1e-5,
    }
}

/// The paper's Table VI datasets, scaled.
pub fn datasets() -> Vec<(&'static str, usize, usize, usize, usize)> {
    // (label, numO, numX, numT, runs)
    vec![
        ("small", 64, 128, 32, 5),
        ("medium", 128, 128, 64, 3),
        ("large", 128, 256, 128, 2),
    ]
}
