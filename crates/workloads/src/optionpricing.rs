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
        let l = ctx.out.lmad().expect("paths are one LMAD");
        let st = l.dims[1].stride;
        for i in ctx.rows.clone() {
            let s0 = l.offset + i * l.dims[0].stride;
            gen_path(i, steps, &mut |t, v| {
                ctx.out.write_f32_off(s0 + t as i64 * st, v)
            });
        }
    });
    reg.register("op_payoff", |ctx| {
        let steps = ctx.arg_i64(0) as usize;
        // Path `i`'s row, addressed through the whole input's LMAD.
        let (paths, out) = (&ctx.inputs[0], ctx.out);
        let l = paths.lmad().expect("paths are one LMAD");
        let ol = out.lmad().expect("payoffs are one LMAD");
        let st = l.dims[1].stride;
        for i in ctx.rows.clone() {
            let base = l.offset + i * l.dims[0].stride;
            let v = payoff(&mut |t| paths.read_f32_off(base + t as i64 * st), steps);
            out.write_f32_off(ol.offset + i * ol.dims[0].stride, v);
        }
    });
    reg.register("op_mean", |ctx| {
        let (payoffs, out) = (&ctx.inputs[0], ctx.out);
        let l = payoffs.lmad().expect("payoffs one LMAD");
        let ol = out.lmad().expect("mean is one LMAD");
        let n = l.dims[0].card;
        for i in ctx.rows.clone() {
            let mut total = 0f32;
            let mut off = l.offset;
            for _ in 0..n {
                total += payoffs.read_f32_off(off);
                off += l.dims[0].stride;
            }
            out.write_f32_off(ol.offset + i * ol.dims[0].stride, total / n as f32);
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
