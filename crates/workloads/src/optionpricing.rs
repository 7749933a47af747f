//! OptionPricing (paper §VI-F; FinPar's extended option pricing engine).
//!
//! A Monte-Carlo engine: each path draws quasi-random gaussians, builds a
//! geometric-Brownian-motion price path (the per-path array is the
//! mapnest case — built in private memory and copied without
//! short-circuiting), computes an arithmetic-Asian payoff, and the payoffs
//! are reduced into the result, whose update short-circuits.

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, SliceSpec, Var};
use arraymem_lmad::{Transform, TripletSlice};
use arraymem_symbolic::{Env, Poly};

const S0: f32 = 100.0;
const STRIKE: f32 = 100.0;
const RATE: f32 = 0.03;
const VOL: f32 = 0.2;
const YEARS: f32 = 1.0;

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// A cheap counter-based quasi-random generator (plays the role of the
/// Sobol sequence): hash (path, step) to a uniform, then an inverse-CDF
/// style approximation to a gaussian via the sum-of-uniforms trick.
#[inline]
fn gaussian(path: i64, step: i64) -> f32 {
    let mut acc = 0f32;
    let mut h = (path as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (step as u64).wrapping_mul(0xD1B54A32D192ED03);
    for _ in 0..4 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        acc += (h >> 40) as f32 / (1u64 << 24) as f32; // uniform [0,1)
    }
    // Sum of 4 uniforms ≈ N(2, 1/3); normalize.
    (acc - 2.0) * (3.0f32).sqrt()
}

/// Build one GBM path (the per-path array the mapnest materializes).
#[inline]
pub fn gen_path(path: i64, steps: usize, out: &mut dyn FnMut(usize, f32)) {
    let dt = YEARS / steps as f32;
    let drift = (RATE - 0.5 * VOL * VOL) * dt;
    let sdt = VOL * dt.sqrt();
    let mut s = S0;
    for t in 0..steps {
        s *= (drift + sdt * gaussian(path, t as i64)).exp();
        out(t, s);
    }
}

/// Arithmetic-Asian call payoff, discounted.
#[inline]
pub fn payoff(read: &mut dyn FnMut(usize) -> f32, steps: usize) -> f32 {
    let mut avg = 0f32;
    for t in 0..steps {
        avg += read(t);
    }
    avg /= steps as f32;
    (avg - STRIKE).max(0.0) * (-RATE * YEARS).exp()
}

/// Hand-written reference: fuse generation + payoff per path, sum.
pub fn reference(npaths: usize, steps: usize) -> f32 {
    let mut total = 0f32;
    let mut path = vec![0f32; steps];
    for i in 0..npaths {
        gen_path(i as i64, steps, &mut |t, v| path[t] = v);
        total += payoff(&mut |t| path[t], steps);
    }
    total / npaths as f32
}

pub fn register_kernels(reg: &mut KernelRegistry) {
    reg.register("op_bridge", |ctx| {
        let steps = ctx.arg_i64(0) as usize;
        let out = ctx
            .rows_mut::<f32>()
            .expect("op_bridge: paths must be dense f32");
        for (i, row) in ctx.rows.clone().zip(out.chunks_exact_mut(steps.max(1))) {
            gen_path(i, steps, &mut |t, v| row[t] = v);
        }
    });
    reg.register("op_payoff", |ctx| {
        let steps = ctx.arg_i64(0) as usize;
        // Path `i`'s row of the whole input.
        let (paths, out) = (ctx.input::<f32>(0).zip(ctx.rows_mut::<f32>()))
            .expect("op_payoff: paths and payoffs must be dense f32");
        for (i, o) in ctx.rows.clone().zip(out) {
            let row = &paths[i as usize * steps..][..steps];
            *o = payoff(&mut |t| row[t], steps);
        }
    });
    reg.register("op_mean", |ctx| {
        let (payoffs, out) = (ctx.input::<f32>(0).zip(ctx.rows_mut::<f32>()))
            .expect("op_mean: payoffs and mean must be dense f32");
        for o in out {
            let total = payoffs.iter().fold(0f32, |acc, &x| acc + x);
            *o = total / payoffs.len() as f32;
        }
    });
}

pub fn program() -> (Program, Env) {
    let mut bld = Builder::new("optionpricing");
    let npaths = bld.scalar_param("op_npaths", ElemType::I64);
    let steps = bld.scalar_param("op_steps", ElemType::I64);
    let mut body = bld.block();

    let paths = body.map_kernel(
        "paths",
        "op_bridge",
        p(npaths),
        vec![p(steps)],
        ElemType::F32,
        vec![],
        vec![ScalarExp::var(steps)],
    );
    let payoffs = body.map_kernel(
        "payoffs",
        "op_payoff",
        p(npaths),
        vec![],
        ElemType::F32,
        vec![paths],
        vec![ScalarExp::var(steps)],
    );
    let red = body.map_kernel_acc(
        "red",
        "op_mean",
        c(1),
        vec![c(1)],
        ElemType::F32,
        vec![payoffs],
        vec![],
        vec![0],
    );
    // Flatten the [1][1] reduction result and write it into the result
    // array — the in-place update the paper describes for NN-style
    // reductions, short-circuited.
    let red_flat = body.transform("red_flat", red, Transform::Reshape(vec![c(1)]));
    let res0 = body.scratch("res0", ElemType::F32, vec![c(1)]);
    let res = body.update(
        "res",
        res0,
        SliceSpec::Triplet(vec![TripletSlice::range(c(0), c(1), c(1))]),
        red_flat,
    );
    let blk = body.finish(vec![res]);

    let mut env = Env::new();
    env.assume_ge(npaths, 1);
    env.assume_ge(steps, 1);
    (bld.finish(blk), env)
}

pub fn case(label: &str, npaths: usize, steps: usize, runs: usize) -> Case {
    let (program, env) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let inputs = vec![
        InputValue::I64(npaths as i64),
        InputValue::I64(steps as i64),
    ];
    Case {
        name: "optionpricing".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels,
        reference: Box::new(move |_| {
            let t0 = std::time::Instant::now();
            let v = reference(npaths, steps);
            (t0.elapsed(), vec![OutputValue::ArrayF32(vec![v])])
        }),
        runs,
        tol: 1e-4,
    }
}

/// The paper's Table V datasets, scaled.
pub fn datasets() -> Vec<(&'static str, usize, usize, usize)> {
    // (label, npaths, steps, runs)
    vec![("medium", 16_384, 64, 4), ("large", 65_536, 64, 2)]
}
