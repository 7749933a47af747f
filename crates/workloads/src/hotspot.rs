//! Hotspot thermal simulation (paper §VI-D, Fig. 10b; Rodinia).
//!
//! A repeated 5-point stencil over a temperature grid driven by a power
//! grid. "The stencil boundaries are treated separately: the corners are
//! handled first, then the four edges and finally the internal cells.
//! Because the new value of each cell depends on the old value of its
//! neighbours, we cannot perform the computation in place. Instead we
//! compute the different parts separately and **concatenate** them at the
//! end." Short-circuiting constructs the parts directly in the result
//! memory, eliding the whole-grid copy per time step (paper speedups up
//! to 2×).
//!
//! We partition by rows: the top boundary row (with its two corners), the
//! interior rows (each handling its left/right edge cells), and the bottom
//! boundary row — a three-way concat along the outer dimension.

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, Var};
use arraymem_symbolic::{Env, Poly};

// Rodinia's chip parameters (simplified to the per-step coefficients).
const CAP: f32 = 0.5;
const RX: f32 = 1.0;
const RY: f32 = 1.0;
const RZ: f32 = 1.0;
const AMB: f32 = 80.0;

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

#[inline]
fn cell_update(t: f32, power: f32, tn: f32, ts: f32, te: f32, tw: f32) -> f32 {
    t + (1.0 / CAP) * (power + (tn + ts - 2.0 * t) / RY + (te + tw - 2.0 * t) / RX + (AMB - t) / RZ)
}

/// Neighbour with boundary clamping.
#[inline]
fn at(temp: &[f32], n: usize, r: i64, cc: i64) -> f32 {
    let r = r.clamp(0, n as i64 - 1) as usize;
    let cc = cc.clamp(0, n as i64 - 1) as usize;
    temp[r * n + cc]
}

/// Hand-written imperative reference: double-buffered in-place stepping.
pub fn reference(n: usize, steps: usize, temp: &mut Vec<f32>, power: &[f32]) {
    let mut next = vec![0f32; n * n];
    for _ in 0..steps {
        for r in 0..n {
            for cc in 0..n {
                let t = temp[r * n + cc];
                next[r * n + cc] = cell_update(
                    t,
                    power[r * n + cc],
                    at(temp, n, r as i64 - 1, cc as i64),
                    at(temp, n, r as i64 + 1, cc as i64),
                    at(temp, n, r as i64, cc as i64 + 1),
                    at(temp, n, r as i64, cc as i64 - 1),
                );
            }
        }
        std::mem::swap(temp, &mut next);
    }
}

/// Grid row `r` of the `n`-wide grid into `out`: the clamped neighbour
/// rows and the two edge cells picked once, so the interior is one loop
/// over plain slices.
fn row_kernel(temp: &[f32], power: &[f32], n: usize, r: usize, out: &mut [f32]) {
    let row = |k: usize| &temp[k * n..][..n];
    let (up, mid, down) = (row(r.saturating_sub(1)), row(r), row((r + 1).min(n - 1)));
    let power = &power[r * n..][..n];
    let out = &mut out[..n];
    let cell = |c: usize, e: f32, w: f32| cell_update(mid[c], power[c], up[c], down[c], e, w);
    out[0] = cell(0, mid[1.min(n - 1)], mid[0]);
    for c in 1..n.saturating_sub(1) {
        out[c] = cell(c, mid[c + 1], mid[c - 1]);
    }
    if n > 1 {
        out[n - 1] = cell(n - 1, mid[n - 1], mid[n - 2]);
    }
}

/// Register one row kernel: instance `i` computes grid row `grid_row(n, i)`.
fn register_rows(reg: &mut KernelRegistry, name: &'static str, grid_row: fn(i64, i64) -> i64) {
    reg.register(name, move |ctx| {
        let n = ctx.arg_i64(0);
        let ((temp, power), out) = (ctx.input::<f32>(0).zip(ctx.input::<f32>(1)))
            .zip(ctx.rows_mut())
            .unwrap_or_else(|| panic!("{name}: grids and rows must be dense f32"));
        for (i, row) in ctx.rows.clone().zip(out.chunks_exact_mut(n as usize)) {
            let r = grid_row(n, i) as usize;
            row_kernel(temp, power, n as usize, r, row);
        }
    });
}

pub fn register_kernels(reg: &mut KernelRegistry) {
    // Top boundary row (instance 0 computes row 0, corners included).
    register_rows(reg, "hotspot_top", |_, _| 0);
    // Interior rows: instance i computes row i+1.
    register_rows(reg, "hotspot_mid", |_, i| i + 1);
    // Bottom boundary row.
    register_rows(reg, "hotspot_bot", |n, _| n - 1);
}

/// The Futhark-style program: a step loop whose body computes the three
/// parts and concatenates them.
pub fn program() -> (Program, Env) {
    let mut bld = Builder::new("hotspot");
    let n = bld.scalar_param("hs_n", ElemType::I64);
    let steps = bld.scalar_param("hs_steps", ElemType::I64);
    let temp0 = bld.array_param("hs_temp", ElemType::F32, vec![p(n), p(n)]);
    let power = bld.array_param("hs_power", ElemType::F32, vec![p(n), p(n)]);
    let mut body = bld.block();

    let param = body.loop_param("T", temp0);
    let it = body.loop_index("hs_it");
    let mut lb = bld.block();
    let args = vec![ScalarExp::var(n)];
    let top = lb.map_kernel_acc(
        "top",
        "hotspot_top",
        c(1),
        vec![p(n)],
        ElemType::F32,
        vec![param, power],
        args.clone(),
        vec![0, 1],
    );
    let mid = lb.map_kernel_acc(
        "mid",
        "hotspot_mid",
        p(n) - c(2),
        vec![p(n)],
        ElemType::F32,
        vec![param, power],
        args.clone(),
        vec![0, 1],
    );
    let bot = lb.map_kernel_acc(
        "bot",
        "hotspot_bot",
        c(1),
        vec![p(n)],
        ElemType::F32,
        vec![param, power],
        args,
        vec![0, 1],
    );
    let joined = lb.concat("T'", vec![top, mid, bot]);
    let lbody = lb.finish(vec![joined]);
    let tfinal = body.loop_(
        vec!["Tfinal"],
        vec![(param, bld.ty(temp0))],
        vec![temp0],
        it,
        p(steps),
        lbody,
    )[0];
    let blk = body.finish(vec![tfinal]);

    let mut env = Env::new();
    env.assume_ge(n, 4);
    env.assume_ge(steps, 1);
    (bld.finish(blk), env)
}

pub fn case(label: &str, n: usize, steps: usize, runs: usize) -> Case {
    let (program, env) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let inputs = vec![
        InputValue::I64(n as i64),
        InputValue::I64(steps as i64),
        InputValue::ArrayF32(crate::data::f32s(7, n * n, 322.0, 342.0)),
        InputValue::ArrayF32(crate::data::f32s(8, n * n, 0.0, 5.0)),
    ];
    Case {
        name: "hotspot".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels,
        reference: Box::new(move |inp| {
            let n = match &inp[0] {
                InputValue::I64(x) => *x as usize,
                _ => unreachable!(),
            };
            let steps = match &inp[1] {
                InputValue::I64(x) => *x as usize,
                _ => unreachable!(),
            };
            let mut temp = match &inp[2] {
                InputValue::ArrayF32(d) => d.clone(),
                _ => unreachable!(),
            };
            let power = match &inp[3] {
                InputValue::ArrayF32(d) => d.clone(),
                _ => unreachable!(),
            };
            let t0 = std::time::Instant::now();
            reference(n, steps, &mut temp, &power);
            (t0.elapsed(), vec![OutputValue::ArrayF32(temp)])
        }),
        runs,
        tol: 1e-4,
    }
}

/// The paper's Table III datasets, scaled.
pub fn datasets() -> Vec<(&'static str, usize, usize, usize)> {
    // (label, n, steps, runs)
    vec![
        ("512", 512, 16, 4),
        ("1024", 1024, 16, 3),
        ("2048", 2048, 16, 2),
    ]
}
