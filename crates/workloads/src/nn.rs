//! K-nearest neighbours (paper §VI-H; Rodinia).
//!
//! "The Futhark version contains a loop with a reduction whose result is
//! used in an in-place update, resulting in a copy. Short-circuiting
//! correctly identifies that the result of the reduce can be put directly
//! in the memory of the result, eliminating a copy."
//!
//! The reference mirrors Rodinia's structure, whose weakness the paper
//! calls out ("Rodinia is significantly slower, because it uses a
//! sequential reduction"): it re-evaluates distances on every selection
//! pass instead of staging them, so its cost is `k · n · dist` versus the
//! compiled version's `n · dist + k · n` scan.

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, SliceSpec, UnOp, Var};
use arraymem_lmad::TripletSlice;
use arraymem_symbolic::{Env, Poly};

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

#[inline]
fn dist(lat: f32, lng: f32, lat0: f32, lng0: f32) -> f32 {
    ((lat - lat0) * (lat - lat0) + (lng - lng0) * (lng - lng0)).sqrt()
}

/// Rodinia-style reference: `k` sequential selection passes, each
/// recomputing every distance.
pub fn reference(lats: &[f32], lngs: &[f32], lat0: f32, lng0: f32, k: usize) -> Vec<f32> {
    let n = lats.len();
    let mut taken = vec![false; n];
    let mut out = vec![0f32; k * 2];
    for j in 0..k {
        let mut best = f32::INFINITY;
        let mut best_i = 0usize;
        for i in 0..n {
            if taken[i] {
                continue;
            }
            let d = dist(lats[i], lngs[i], lat0, lng0);
            if d < best {
                best = d;
                best_i = i;
            }
        }
        taken[best_i] = true;
        out[j * 2] = best;
        out[j * 2 + 1] = best_i as f32;
    }
    out
}

pub fn register_kernels(reg: &mut KernelRegistry) {
    // Stage 1: squared coordinate deltas, one (Δlat², Δlng²) pair per
    // point — the staging buffer a naive functional formulation writes.
    reg.register("nn_delta_sq", |ctx| {
        let lat0 = ctx.arg_f32(0);
        let lng0 = ctx.arg_f32(1);
        let ((lats, lngs), out) = (ctx.input::<f32>(0).zip(ctx.input::<f32>(1)))
            .zip(ctx.rows_mut::<f32>())
            .expect("nn_delta_sq: points and deltas must be dense f32");
        for (i, o) in ctx.rows.clone().zip(out.chunks_exact_mut(2)) {
            let (lat, lng) = (lats[i as usize], lngs[i as usize]);
            o[0] = (lat - lat0) * (lat - lat0);
            o[1] = (lng - lng0) * (lng - lng0);
        }
    });
    // Stage 2: Euclidean norm of each pair. Identical arithmetic to
    // `dist` above, split across the two launches.
    reg.register("nn_norm", |ctx| {
        let (d2, out) = (ctx.input::<f32>(0).zip(ctx.rows_mut::<f32>()))
            .expect("nn_norm: deltas and norms must be dense f32");
        for (i, o) in ctx.rows.clone().zip(out) {
            let i = i as usize;
            *o = (d2[2 * i] + d2[2 * i + 1]).sqrt();
        }
    });
    // The "reduction": a single instance scanning for the minimum
    // (value, index) pair.
    reg.register("nn_argmin", |ctx| {
        let (dists, out) = (ctx.input::<f32>(0).zip(ctx.rows_mut::<f32>()))
            .expect("nn_argmin: distances and result must be dense f32");
        for o in out.chunks_exact_mut(2) {
            let mut best = f32::INFINITY;
            let mut best_i = 0usize;
            for (i, &d) in dists.iter().enumerate() {
                if d < best {
                    best = d;
                    best_i = i;
                }
            }
            o[0] = best;
            o[1] = best_i as f32;
        }
    });
}

pub fn program() -> (Program, Env) {
    let mut bld = Builder::new("nn");
    let n = bld.scalar_param("nn_n", ElemType::I64);
    let k = bld.scalar_param("nn_k", ElemType::I64);
    let lat0 = bld.scalar_param("nn_lat0", ElemType::F32);
    let lng0 = bld.scalar_param("nn_lng0", ElemType::F32);
    let lats = bld.array_param("nn_lats", ElemType::F32, vec![p(n)]);
    let lngs = bld.array_param("nn_lngs", ElemType::F32, vec![p(n)]);
    let mut body = bld.block();

    // Staged distance computation: squared deltas first, then the norm.
    // The [n][2] delta buffer dies once the norms are taken, so the merge
    // pass can put the [k][2] result scratch inside it (k ≤ n).
    let d2 = body.map_kernel(
        "d2",
        "nn_delta_sq",
        p(n),
        vec![c(2)],
        ElemType::F32,
        vec![lats, lngs],
        vec![ScalarExp::var(lat0), ScalarExp::var(lng0)],
    );
    let dists0 = body.map_kernel(
        "dists",
        "nn_norm",
        p(n),
        vec![],
        ElemType::F32,
        vec![d2],
        vec![],
    );
    let res0 = body.scratch("res0", ElemType::F32, vec![p(k), c(2)]);

    let res_p = body.loop_param("res", res0);
    let dists_p = body.loop_param("ds", dists0);
    let j = body.loop_index("nn_j");
    let mut lb = bld.block();
    let red = lb.map_kernel_acc(
        "red",
        "nn_argmin",
        c(1),
        vec![c(2)],
        ElemType::F32,
        vec![dists_p],
        vec![],
        vec![0],
    );
    // Extract the winning index *before* the circuit point, so `red` is
    // lastly used by the update.
    let mi = lb.scalar(
        "mi",
        ElemType::I64,
        ScalarExp::un(
            UnOp::ToI64,
            ScalarExp::Index(red, vec![ScalarExp::i64(0), ScalarExp::i64(1)]),
        ),
    );
    let res_next = lb.update(
        "res'",
        res_p,
        SliceSpec::Triplet(vec![
            TripletSlice::range(p(j), c(1), c(1)),
            TripletSlice::full(c(2)),
        ]),
        red,
    );
    let ds_next = lb.update_scalar(
        "ds'",
        dists_p,
        vec![ScalarExp::var(mi)],
        ScalarExp::f32(f32::INFINITY),
    );
    let lbody = lb.finish(vec![res_next, ds_next]);
    let outs = body.loop_(
        vec!["res_final", "ds_final"],
        vec![(res_p, bld.ty(res0)), (dists_p, bld.ty(dists0))],
        vec![res0, dists0],
        j,
        p(k),
        lbody,
    );
    let blk = body.finish(vec![outs[0]]);

    let mut env = Env::new();
    env.assume_ge(n, 1);
    env.assume_ge(k, 1);
    // k nearest of n points: k never exceeds n (lets the merge pass
    // prove the 2k-element result scratch fits the 2n-element deltas).
    env.assume_le(k, p(n));
    (bld.finish(blk), env)
}

pub fn case(label: &str, n: usize, k: usize, runs: usize) -> Case {
    let (program, env) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let lats = crate::data::f32s(21, n, 0.0, 90.0);
    let lngs = crate::data::f32s(22, n, 0.0, 180.0);
    let (lat0, lng0) = (45.0f32, 90.0f32);
    let inputs = vec![
        InputValue::I64(n as i64),
        InputValue::I64(k as i64),
        InputValue::F32(lat0),
        InputValue::F32(lng0),
        InputValue::ArrayF32(lats),
        InputValue::ArrayF32(lngs),
    ];
    Case {
        name: "nn".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels,
        reference: Box::new(move |inp| {
            let k = match &inp[1] {
                InputValue::I64(x) => *x as usize,
                _ => unreachable!(),
            };
            let (lat0, lng0) = match (&inp[2], &inp[3]) {
                (InputValue::F32(a), InputValue::F32(b)) => (*a, *b),
                _ => unreachable!(),
            };
            let lats = match &inp[4] {
                InputValue::ArrayF32(d) => d,
                _ => unreachable!(),
            };
            let lngs = match &inp[5] {
                InputValue::ArrayF32(d) => d,
                _ => unreachable!(),
            };
            let t0 = std::time::Instant::now();
            let out = reference(lats, lngs, lat0, lng0, k);
            (t0.elapsed(), vec![OutputValue::ArrayF32(out)])
        }),
        runs,
        tol: 0.0,
    }
}

/// The paper's Table VII datasets, scaled /10.
pub fn datasets() -> Vec<(&'static str, usize, usize, usize)> {
    // (label, n, k, runs)
    vec![
        ("85528", 85_528, 16, 5),
        ("855280", 855_280, 16, 3),
        ("8552800", 8_552_800, 16, 2),
    ]
}
