//! Needleman-Wunsch DNA sequence alignment (paper §III, §VI-B; Rodinia).
//!
//! The dependence pattern (Fig. 2) is parallelized by block tiling + loop
//! skewing: the `b×b` blocks on each anti-diagonal are computed in
//! parallel, each from its vertical and horizontal perimeter bars. The
//! Futhark-style program expresses exactly the paper's pseudo-code:
//!
//! ```text
//! loop A for i < q do
//!   let R_vert  = A[i·b     + {(i+1 : n·b−b), (b+1 : n)}]
//!   let R_horiz = A[i·b + 1 + {(i+1 : n·b−b), (b : 1)}]
//!   let X = map2 process_block R_vert R_horiz
//!   let A[i·b + n + 1 + {(i+1 : n·b−b), (b : n), (b : 1)}] = X
//!   in A
//! ```
//! followed by the mirrored loop for the second half. Short-circuiting
//! must prove `W ∩ (R_vert ∪ R_horiz) = ∅` (Fig. 9) to compute the blocks
//! in place.

use crate::data::nw_similarity;
use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, SliceSpec, Var};
use arraymem_lmad::{Dim, Lmad, Transform};
use arraymem_symbolic::{Env, Poly};

pub const PENALTY: i64 = 10;

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// The initial matrix: first row/column hold the gap penalties, the rest
/// is zero (filled in by the algorithm).
pub fn init_matrix(n: usize) -> Vec<i64> {
    let mut a = vec![0i64; n * n];
    for j in 0..n {
        a[j] = -(j as i64) * PENALTY;
        a[j * n] = -(j as i64) * PENALTY;
    }
    a
}

/// Golden sequential implementation — also the "hand-written imperative"
/// reference: a single in-place traversal (the natural CPU equivalent of
/// Rodinia's implementation).
pub fn reference(n: usize, a: &mut [i64]) {
    for i in 1..n {
        for j in 1..n {
            let m = a[(i - 1) * n + (j - 1)] + nw_similarity(i as i64, j as i64);
            let up = a[(i - 1) * n + j] - PENALTY;
            let left = a[i * n + (j - 1)] - PENALTY;
            a[i * n + j] = m.max(up).max(left);
        }
    }
}

/// Register the per-anti-diagonal block kernel. Instance `k` computes one
/// `b×b` block from its perimeter bars (inputs are row-wise: bar `k` of
/// each). Scalar args: `n`, `b`, `base` (flat offset of block 0's origin;
/// block `k`'s origin is `base + k·(n·b − b)`).
pub fn register_kernels(reg: &mut KernelRegistry) {
    reg.register("nw_process_block", |ctx| {
        let n = ctx.arg_i64(0);
        let b = ctx.arg_i64(1) as usize;
        let base = ctx.arg_i64(2);
        // The bars are views of the matrix the block is written into, so
        // they are staged: the vertical bar, then the horizontal bar as
        // row −1 of the block, computed below it and written by rows.
        // Scratch once per call.
        let mut scratch = vec![0i64; (b + 1) * (b + 1)];
        let (vert, rows) = scratch.split_at_mut(b + 1);
        for i in ctx.rows.clone() {
            let origin = base + i * (n * (b as i64) - b as i64);
            let (r0, c0) = (origin / n, origin % n);
            ctx.read_row(0, i, vert);
            ctx.read_row(1, i, &mut rows[..b]);
            for r in 0..b {
                let (above, cur) = rows[r * b..(r + 2) * b].split_at_mut(b);
                let (mut diag, mut left) = (vert[r], vert[r + 1]);
                for (cc, v) in cur.iter_mut().enumerate() {
                    *v = (diag + nw_similarity(r0 + r as i64, c0 + cc as i64))
                        .max(above[cc].max(left) - PENALTY);
                    (diag, left) = (above[cc], *v);
                }
            }
            ctx.write_row(i, &rows[b..]);
        }
    });
}

/// Build the Futhark-style NW program: two anti-diagonal loops over the
/// blocked matrix, using LMAD slices for the bars and the write set.
pub fn program() -> (Program, Env, NwVars) {
    let mut bld = Builder::new("nw");
    let n = bld.scalar_param("nw_n", ElemType::I64);
    let q = bld.scalar_param("nw_q", ElemType::I64);
    let b = bld.scalar_param("nw_b", ElemType::I64);
    let a = bld.array_param("nw_A", ElemType::I64, vec![p(n) * p(n)]);
    let mut body = bld.block();

    let block_stride = p(n) * p(b) - p(b); // distance between blocks on a diagonal

    // ---- First half: anti-diagonals d = 0 .. q-1, d+1 blocks each.
    let param1 = body.loop_param("A1", a);
    let d = body.loop_index("nw_d");
    let mut l1 = bld.block();
    let count1 = p(d) + c(1);
    let corner1 = p(d) * p(b); // corner of block 0 on diagonal d
    let rvert1 = l1.slice(
        "Rvert",
        param1,
        Transform::LmadSlice(Lmad::new(
            corner1.clone(),
            vec![
                Dim::new(count1.clone(), block_stride.clone()),
                Dim::new(p(b) + c(1), p(n)),
            ],
        )),
    );
    let rhoriz1 = l1.slice(
        "Rhoriz",
        param1,
        Transform::LmadSlice(Lmad::new(
            corner1.clone() + c(1),
            vec![
                Dim::new(count1.clone(), block_stride.clone()),
                Dim::new(p(b), c(1)),
            ],
        )),
    );
    let base1 = corner1.clone() + p(n) + c(1);
    let x1 = l1.map_kernel(
        "X1",
        "nw_process_block",
        count1.clone(),
        vec![p(b), p(b)],
        ElemType::I64,
        vec![rvert1, rhoriz1],
        vec![
            ScalarExp::var(n),
            ScalarExp::var(b),
            ScalarExp::Size(base1.clone()),
        ],
    );
    let w1 = Lmad::new(
        base1,
        vec![
            Dim::new(count1, block_stride.clone()),
            Dim::new(p(b), p(n)),
            Dim::new(p(b), c(1)),
        ],
    );
    let a1next = l1.update("A1'", param1, SliceSpec::Lmad(w1), x1);
    let l1_body = l1.finish(vec![a1next]);
    let a_half = body.loop_(
        vec!["Ahalf"],
        vec![(param1, bld.ty(a))],
        vec![a],
        d,
        p(q),
        l1_body,
    )[0];

    // ---- Second half: ii = 0 .. q-2, q-1-ii blocks each.
    let param2 = body.loop_param("A2", a_half);
    let ii = body.loop_index("nw_ii");
    let mut l2 = bld.block();
    let count2 = p(q) - c(1) - p(ii);
    // Origin of block 0 on this diagonal: block (ii+1, q-1).
    let base2 = (p(ii) + c(1)) * p(b) * p(n) + p(n) + c(1) + (p(q) - c(1)) * p(b);
    let corner2 = base2.clone() - p(n) - c(1);
    let rvert2 = l2.slice(
        "Rvert2",
        param2,
        Transform::LmadSlice(Lmad::new(
            corner2.clone(),
            vec![
                Dim::new(count2.clone(), block_stride.clone()),
                Dim::new(p(b) + c(1), p(n)),
            ],
        )),
    );
    let rhoriz2 = l2.slice(
        "Rhoriz2",
        param2,
        Transform::LmadSlice(Lmad::new(
            corner2 + c(1),
            vec![
                Dim::new(count2.clone(), block_stride.clone()),
                Dim::new(p(b), c(1)),
            ],
        )),
    );
    let x2 = l2.map_kernel(
        "X2",
        "nw_process_block",
        count2.clone(),
        vec![p(b), p(b)],
        ElemType::I64,
        vec![rvert2, rhoriz2],
        vec![
            ScalarExp::var(n),
            ScalarExp::var(b),
            ScalarExp::Size(base2.clone()),
        ],
    );
    let w2 = Lmad::new(
        base2,
        vec![
            Dim::new(count2, block_stride),
            Dim::new(p(b), p(n)),
            Dim::new(p(b), c(1)),
        ],
    );
    let a2next = l2.update("A2'", param2, SliceSpec::Lmad(w2), x2);
    let l2_body = l2.finish(vec![a2next]);
    let a_final = body.loop_(
        vec!["Afinal"],
        vec![(param2, bld.ty(a_half))],
        vec![a_half],
        ii,
        p(q) - c(1),
        l2_body,
    )[0];

    let blk = body.finish(vec![a_final]);
    let mut env = Env::new();
    env.define(n, p(q) * p(b) + c(1));
    env.assume_ge(q, 2);
    env.assume_ge(b, 2);
    (bld.finish(blk), env, NwVars { n, q, b, a })
}

/// The program's parameter variables, for building inputs.
pub struct NwVars {
    pub n: Var,
    pub q: Var,
    pub b: Var,
    pub a: Var,
}

/// Build a full benchmark case for `q` blocks of size `b` per side.
pub fn case(label: &str, q: usize, b: usize, runs: usize) -> Case {
    let n = q * b + 1;
    let (program, env, _) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let inputs = vec![
        InputValue::I64(n as i64),
        InputValue::I64(q as i64),
        InputValue::I64(b as i64),
        InputValue::ArrayI64(init_matrix(n)),
    ];
    Case {
        name: "nw".into(),
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
            let mut a = match &inp[3] {
                InputValue::ArrayI64(d) => d.clone(),
                _ => unreachable!(),
            };
            let t0 = std::time::Instant::now();
            reference(n, &mut a);
            (t0.elapsed(), vec![OutputValue::ArrayI64(a)])
        }),
        runs,
        tol: 0.0,
    }
}

/// The paper's Table I datasets, scaled (see EXPERIMENTS.md).
pub fn datasets() -> Vec<(&'static str, usize, usize, usize)> {
    // (label, q, b, runs)
    vec![
        ("1024", 64, 16, 5),
        ("2048", 128, 16, 3),
        ("4096", 256, 16, 2),
    ]
}
