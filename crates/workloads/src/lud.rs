//! LU decomposition (paper §VI-C, Fig. 10a; Rodinia).
//!
//! Blocked right-looking LU without pivoting on an `n×n` matrix,
//! `n = q·b`. Each step `k` processes the diagonal block (green), then the
//! perimeter row (blue) and column (yellow) blocks, then the interior
//! (red) blocks.
//!
//! Short-circuiting behaviour mirrors the paper: the diagonal block reads
//! the very block it would be written into, so its update keeps its copy
//! (the paper's green block is likewise not computed in place); the
//! perimeter and interior updates — the O(n²)-per-step bulk — are proven
//! safe and elided.

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelCtx, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, SliceSpec, Var};
use arraymem_lmad::{Dim, Lmad, Transform};
use arraymem_symbolic::{Env, Poly};

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// A diagonally-dominant random matrix (so factorization without pivoting
/// is stable).
pub fn gen_matrix(n: usize, seed: u64) -> Vec<f32> {
    let mut a = crate::data::f32s(seed, n * n, 0.01, 1.0);
    for i in 0..n {
        a[i * n + i] += n as f32;
    }
    a
}

/// In-place sequential *blocked* LU (same blocking as the parallel
/// version, so float rounding matches) — the "hand-written imperative"
/// reference.
pub fn reference(n: usize, b: usize, a: &mut [f32]) {
    let q = n / b;
    for k in 0..q {
        lu_diag_inplace(a, n, k * b, b);
        for j in k + 1..q {
            solve_row_block(a, n, k * b, j * b, b);
        }
        for i in k + 1..q {
            solve_col_block(a, n, i * b, k * b, b);
        }
        for i in k + 1..q {
            for j in k + 1..q {
                mm_sub_block(a, n, i * b, j * b, k * b, b);
            }
        }
    }
}

fn lu_diag_inplace(a: &mut [f32], n: usize, o: usize, b: usize) {
    for kk in 0..b {
        let pivot = a[(o + kk) * n + o + kk];
        for i in kk + 1..b {
            let l = a[(o + i) * n + o + kk] / pivot;
            a[(o + i) * n + o + kk] = l;
            for j in kk + 1..b {
                a[(o + i) * n + o + j] -= l * a[(o + kk) * n + o + j];
            }
        }
    }
}

/// U(k,j) := L(k,k)^-1 · A(k,j) (unit lower triangular solve).
fn solve_row_block(a: &mut [f32], n: usize, ko: usize, jo: usize, b: usize) {
    for r in 1..b {
        for t in 0..r {
            let l = a[(ko + r) * n + ko + t];
            for cc in 0..b {
                let u = a[(ko + t) * n + jo + cc];
                a[(ko + r) * n + jo + cc] -= l * u;
            }
        }
    }
}

/// L(i,k) := A(i,k) · U(k,k)^-1.
fn solve_col_block(a: &mut [f32], n: usize, io: usize, ko: usize, b: usize) {
    for cc in 0..b {
        for r in 0..b {
            let mut v = a[(io + r) * n + ko + cc];
            for t in 0..cc {
                v -= a[(io + r) * n + ko + t] * a[(ko + t) * n + ko + cc];
            }
            a[(io + r) * n + ko + cc] = v / a[(ko + cc) * n + ko + cc];
        }
    }
}

/// A(i,j) -= L(i,k) · U(k,j).
fn mm_sub_block(a: &mut [f32], n: usize, io: usize, jo: usize, ko: usize, b: usize) {
    for r in 0..b {
        for t in 0..b {
            let l = a[(io + r) * n + ko + t];
            for cc in 0..b {
                a[(io + r) * n + jo + cc] -= l * a[(ko + t) * n + jo + cc];
            }
        }
    }
}

/// Register a block kernel: `f(ctx, i, b, scratch)` leaves instance `i`'s
/// block in the first `b×b` of `scratch`, which holds `buffers` such
/// blocks and is allocated once per call, for all its instances. Blocks
/// are strided views of the matrix, staged by rows (`ctx.read_row`) into
/// dense local buffers — the kernels' "shared memory", as Rodinia's.
fn register_blocks<F>(reg: &mut KernelRegistry, name: &str, buffers: usize, f: F)
where
    F: Fn(&KernelCtx, i64, usize, &mut [f32]) + Send + Sync + 'static,
{
    reg.register(name, move |ctx| {
        let b = ctx.arg_i64(0) as usize;
        let mut scratch = vec![0f32; buffers * b * b];
        for i in ctx.rows.clone() {
            f(ctx, i, b, &mut scratch);
            ctx.write_row(i, &scratch[..b * b]);
        }
    });
}

pub fn register_kernels(reg: &mut KernelRegistry) {
    // Diagonal block LU. Width 1; input: the diagonal block (whole).
    register_blocks(reg, "lud_diagonal", 1, |ctx, _, b, blk| {
        ctx.read_row(0, 0, blk);
        for kk in 0..b {
            let pivot = blk[kk * b + kk];
            for i in kk + 1..b {
                let l = blk[i * b + kk] / pivot;
                blk[i * b + kk] = l;
                for j in kk + 1..b {
                    blk[i * b + j] -= l * blk[kk * b + j];
                }
            }
        }
    });
    // Perimeter row: instance j computes U(k, k+1+j). Inputs: factored
    // diagonal (whole), own row block (row-wise).
    register_blocks(reg, "lud_perimeter_row", 2, |ctx, j, b, s| {
        let (blk, diag) = s.split_at_mut(b * b);
        ctx.read_row(0, 0, diag);
        ctx.read_row(1, j, blk);
        for r in 1..b {
            for t in 0..r {
                let l = diag[r * b + t];
                for cc in 0..b {
                    blk[r * b + cc] -= l * blk[t * b + cc];
                }
            }
        }
    });
    // Perimeter column: instance i computes L(k+1+i, k).
    register_blocks(reg, "lud_perimeter_col", 2, |ctx, i, b, s| {
        let (blk, diag) = s.split_at_mut(b * b);
        ctx.read_row(0, 0, diag);
        ctx.read_row(1, i, blk);
        for cc in 0..b {
            for r in 0..b {
                let mut v = blk[r * b + cc];
                for t in 0..cc {
                    v -= blk[r * b + t] * diag[t * b + cc];
                }
                blk[r * b + cc] = v / diag[cc * b + cc];
            }
        }
    });
    // Interior: instance j computes A(i, k+1+j) -= L(i,k)·U(k, k+1+j).
    // Inputs: L block (whole), U row blocks (row-wise), own blocks
    // (row-wise).
    register_blocks(reg, "lud_interior", 3, |ctx, j, b, s| {
        let (own, rest) = s.split_at_mut(b * b);
        let (lblk, ublk) = rest.split_at_mut(b * b);
        ctx.read_row(0, 0, lblk);
        ctx.read_row(1, j, ublk);
        ctx.read_row(2, j, own);
        for r in 0..b {
            for t in 0..b {
                let l = lblk[r * b + t];
                for cc in 0..b {
                    own[r * b + cc] -= l * ublk[t * b + cc];
                }
            }
        }
    });
}

/// An LMAD selecting a single b×b block at block coordinates (`br`, `bc`),
/// with a leading unit dimension so shapes line up with width-1 maps.
fn block1_lmad(n: Poly, b: Poly, br: Poly, bc: Poly) -> Lmad {
    Lmad::new(
        br * p_of(&b) * n.clone() + bc * p_of(&b),
        vec![
            Dim::new(c(1), n.clone() * p_of(&b)),
            Dim::new(b.clone(), n),
            Dim::new(b, c(1)),
        ],
    )
}

fn p_of(x: &Poly) -> Poly {
    x.clone()
}

/// An LMAD selecting `m` consecutive blocks along a block row (stride `b`)
/// or column (stride `b·n`).
fn blocks_lmad(n: Poly, b: Poly, origin: Poly, m: Poly, outer_stride: Poly) -> Lmad {
    Lmad::new(
        origin,
        vec![
            Dim::new(m, outer_stride),
            Dim::new(b.clone(), n),
            Dim::new(b, c(1)),
        ],
    )
}

/// Build the Futhark-style blocked-LU program.
pub fn program() -> (Program, Env) {
    let mut bld = Builder::new("lud");
    let n = bld.scalar_param("lud_n", ElemType::I64);
    let q = bld.scalar_param("lud_q", ElemType::I64);
    let b = bld.scalar_param("lud_b", ElemType::I64);
    let a = bld.array_param("lud_A", ElemType::F32, vec![p(n) * p(n)]);
    let mut body = bld.block();

    let param = body.loop_param("Ak", a);
    let k = body.loop_index("lud_k");
    let mut lb = bld.block();
    let m = p(q) - c(1) - p(k); // number of perimeter blocks this step

    // --- Diagonal block (not short-circuitable: reads its own block).
    let diag_slice = block1_lmad(p(n), p(b), p(k), p(k));
    let diag_in = lb.slice("diag_in", param, Transform::LmadSlice(diag_slice.clone()));
    let diag_x = lb.map_kernel_acc(
        "diagX",
        "lud_diagonal",
        c(1),
        vec![p(b), p(b)],
        ElemType::F32,
        vec![diag_in],
        vec![ScalarExp::var(b)],
        vec![0],
    );
    let a_d = lb.update("A_d", param, SliceSpec::Lmad(diag_slice), diag_x);

    // --- Perimeter row blocks U(k, k+1..q).
    let row_origin = p(k) * p(b) * p(n) + (p(k) + c(1)) * p(b);
    let row_slice = blocks_lmad(p(n), p(b), row_origin.clone(), m.clone(), p(b));
    let row_in = lb.slice("row_in", a_d, Transform::LmadSlice(row_slice.clone()));
    let row_x = lb.map_kernel_acc(
        "rowX",
        "lud_perimeter_row",
        m.clone(),
        vec![p(b), p(b)],
        ElemType::F32,
        vec![diag_x, row_in],
        vec![ScalarExp::var(b)],
        vec![0],
    );
    let a_r = lb.update("A_r", a_d, SliceSpec::Lmad(row_slice), row_x);

    // --- Perimeter column blocks L(k+1..q, k).
    let col_origin = (p(k) + c(1)) * p(b) * p(n) + p(k) * p(b);
    let col_slice = blocks_lmad(p(n), p(b), col_origin, m.clone(), p(b) * p(n));
    let col_in = lb.slice("col_in", a_r, Transform::LmadSlice(col_slice.clone()));
    let col_x = lb.map_kernel_acc(
        "colX",
        "lud_perimeter_col",
        m.clone(),
        vec![p(b), p(b)],
        ElemType::F32,
        vec![diag_x, col_in],
        vec![ScalarExp::var(b)],
        vec![0],
    );
    let a_c = lb.update("A_c", a_r, SliceSpec::Lmad(col_slice), col_x);

    // --- Interior: a sequential loop over block rows, a parallel map over
    // block columns within each.
    let inner_param = lb.loop_param("Ai", a_c);
    let ir = lb.loop_index("lud_ir"); // 0-based block-row index below k
    let mut il = bld.block();
    let io = p(k) + c(1) + p(ir); // absolute block row
    let lblk_slice = block1_lmad(p(n), p(b), io.clone(), p(k));
    let lblk = il.slice("lblk", inner_param, Transform::LmadSlice(lblk_slice));
    let urow_slice = blocks_lmad(p(n), p(b), row_origin.clone(), m.clone(), p(b));
    let urow = il.slice("urow", inner_param, Transform::LmadSlice(urow_slice));
    let own_origin = io.clone() * p(b) * p(n) + (p(k) + c(1)) * p(b);
    let own_slice = blocks_lmad(p(n), p(b), own_origin, m.clone(), p(b));
    let own = il.slice("own", inner_param, Transform::LmadSlice(own_slice.clone()));
    let int_x = il.map_kernel_acc(
        "intX",
        "lud_interior",
        m.clone(),
        vec![p(b), p(b)],
        ElemType::F32,
        vec![lblk, urow, own],
        vec![ScalarExp::var(b)],
        vec![0],
    );
    let a_i = il.update("A_i'", inner_param, SliceSpec::Lmad(own_slice), int_x);
    let il_body = il.finish(vec![a_i]);
    let a_int = lb.loop_(
        vec!["Aint"],
        vec![(inner_param, bld.ty(a_c))],
        vec![a_c],
        ir,
        m,
        il_body,
    )[0];

    let lb_body = lb.finish(vec![a_int]);
    let a_final = body.loop_(
        vec!["Afinal"],
        vec![(param, bld.ty(a))],
        vec![a],
        k,
        p(q),
        lb_body,
    )[0];
    let blk = body.finish(vec![a_final]);

    let mut env = Env::new();
    env.define(n, p(q) * p(b));
    env.assume_ge(q, 2);
    env.assume_ge(b, 2);
    (bld.finish(blk), env)
}

pub fn case(label: &str, q: usize, b: usize, runs: usize) -> Case {
    let n = q * b;
    let (program, env) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let bb = b;
    let inputs = vec![
        InputValue::I64(n as i64),
        InputValue::I64(q as i64),
        InputValue::I64(b as i64),
        InputValue::ArrayF32(gen_matrix(n, 42)),
    ];
    Case {
        name: "lud".into(),
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
                InputValue::ArrayF32(d) => d.clone(),
                _ => unreachable!(),
            };
            let t0 = std::time::Instant::now();
            reference(n, bb, &mut a);
            (t0.elapsed(), vec![OutputValue::ArrayF32(a)])
        }),
        runs,
        tol: 1e-3,
    }
}

/// The paper's Table II datasets, scaled.
pub fn datasets() -> Vec<(&'static str, usize, usize, usize)> {
    vec![("256", 16, 16, 5), ("512", 32, 16, 3), ("1024", 64, 16, 2)]
}
