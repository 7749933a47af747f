//! The irregular-access workload family: sparse matrix–vector product
//! (CSR), a weighted histogram with data-dependent bins, and an index
//! permutation round-trip.
//!
//! None of these appear in the paper's Table VII — they exist to pin down
//! how the affine LMAD machinery behaves when a program's access pattern
//! is *runtime data*. Each workload routes part of its dataflow through
//! `gather`/`scatter`, whose footprints no LMAD describes, and the tests
//! assert two things about the compiled result:
//!
//! 1. **Sound degradation, with receipts.** Every affine-only pass
//!    (short-circuiting, block merging, parallel-safety) must *reject*
//!    the opaque accesses with a closed-enum reason
//!    ([`RejectReason::RuntimeIndexedWrite`],
//!    [`MergeReject::RuntimeIndexed`],
//!    [`ParReject::RuntimeIndexedWrite`]) — a remark proves the pass saw
//!    the construct and declined, rather than silently skipping it.
//!
//! 2. **The rest of the machinery still works.** Affine maps around the
//!    irregular core still get parallel-safety proofs, lifetime-disjoint
//!    blocks still share storage, plans still cache, and checked mode
//!    validates every runtime index against the addressed extent.
//!
//! [`RejectReason::RuntimeIndexedWrite`]: arraymem_core::RejectReason
//! [`MergeReject::RuntimeIndexed`]: arraymem_core::MergeReject
//! [`ParReject::RuntimeIndexedWrite`]: arraymem_core::ParReject

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{BinOp, Builder, ElemType, Program, ScalarExp, Var};
use arraymem_symbolic::{Env, Poly};

fn p(v: Var) -> Poly {
    Poly::var(v)
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

fn as_f32s(v: &InputValue) -> &[f32] {
    match v {
        InputValue::ArrayF32(d) => d,
        _ => unreachable!("expected an f32 array input"),
    }
}

fn as_i64s(v: &InputValue) -> &[i64] {
    match v {
        InputValue::ArrayI64(d) => d,
        _ => unreachable!("expected an i64 array input"),
    }
}

// ---------------------------------------------------------------------------
// Sparse matrix–vector product (CSR).
// ---------------------------------------------------------------------------

/// Reference CSR matvec, summing each row's products in ascending
/// column-entry order (the same order the compiled row kernel uses, so
/// the comparison is bit-exact).
pub fn spmv_reference(
    n_rows: usize,
    vals: &[f32],
    col_idx: &[i64],
    row_ptr: &[i64],
    x: &[f32],
) -> Vec<f32> {
    let mut y = vec![0f32; n_rows];
    for (i, out) in y.iter_mut().enumerate() {
        let mut acc = 0f32;
        for j in row_ptr[i]..row_ptr[i + 1] {
            acc += vals[j as usize] * x[col_idx[j as usize] as usize];
        }
        *out = acc;
    }
    y
}

pub fn spmv_register_kernels(reg: &mut KernelRegistry) {
    // Row reduction over the (already gathered and multiplied) products:
    // instance `i` sums products[row_ptr[i] .. row_ptr[i+1]]. Both inputs
    // are declared whole — the segment boundaries are runtime data, so
    // the row-wise read contract cannot describe them.
    reg.register("spmv_row_sum", |ctx| {
        let ((products, row_ptr), out) = (ctx.input::<f32>(0).zip(ctx.input::<i64>(1)))
            .zip(ctx.rows_mut::<f32>())
            .expect("spmv_row_sum: products, row pointers and sums must be dense");
        for (i, o) in ctx.rows.clone().zip(out) {
            // From +0.0, as the reference sums (`Iterator::sum` starts at
            // −0.0, which an empty row would keep).
            let mut acc = 0f32;
            for j in row_ptr[i as usize]..row_ptr[i as usize + 1] {
                acc += products[j as usize];
            }
            *o = acc;
        }
    });
}

/// `y = A·x` with `A` in CSR form. The irregular step is the gather
/// `x[col_idx[j]]`; everything downstream of it is affine again, so the
/// row-sum mapnest still earns a parallel-safety proof.
pub fn spmv_program() -> (Program, Env) {
    let mut bld = Builder::new("spmv");
    let nr = bld.scalar_param("spmv_nr", ElemType::I64);
    let nc = bld.scalar_param("spmv_nc", ElemType::I64);
    let nnz = bld.scalar_param("spmv_nnz", ElemType::I64);
    let vals = bld.array_param("spmv_vals", ElemType::F32, vec![p(nnz)]);
    let col_idx = bld.array_param("spmv_col_idx", ElemType::I64, vec![p(nnz)]);
    let row_ptr = bld.array_param("spmv_row_ptr", ElemType::I64, vec![p(nr) + c(1)]);
    let x = bld.array_param("spmv_x", ElemType::F32, vec![p(nc)]);
    let mut body = bld.block();

    // The opaque step: expand x through the runtime column indices.
    let gathered = body.gather("gx", x, col_idx);
    // Affine again: entrywise products, then segmented row sums.
    let products = body.map_lambda(
        "prod",
        p(nnz),
        vec![vals, gathered],
        ElemType::F32,
        |b, ps| {
            vec![b.scalar(
                "m",
                ElemType::F32,
                ScalarExp::bin(BinOp::Mul, ScalarExp::var(ps[0]), ScalarExp::var(ps[1])),
            )]
        },
    );
    let y = body.map_kernel_acc(
        "y",
        "spmv_row_sum",
        p(nr),
        vec![],
        ElemType::F32,
        vec![products, row_ptr],
        vec![],
        vec![0, 1],
    );
    let blk = body.finish(vec![y]);

    let mut env = Env::new();
    env.assume_ge(nr, 1);
    env.assume_ge(nc, 1);
    env.assume_ge(nnz, 1);
    (bld.finish(blk), env)
}

/// Deterministic CSR instance: ~`avg_nnz` entries per row at random
/// columns. Returns `(vals, col_idx, row_ptr)`.
pub fn spmv_data(
    seed: u64,
    n_rows: usize,
    n_cols: usize,
    avg_nnz: usize,
) -> (Vec<f32>, Vec<i64>, Vec<i64>) {
    let mut r = crate::data::rng(seed);
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    row_ptr.push(0i64);
    for _ in 0..n_rows {
        // At least one entry per row keeps every segment non-empty.
        let k = r.i64_incl(1, (2 * avg_nnz).max(1) as i64);
        row_ptr.push(row_ptr.last().unwrap() + k);
    }
    let nnz = *row_ptr.last().unwrap() as usize;
    let col_idx: Vec<i64> = (0..nnz).map(|_| r.i64_in(0, n_cols as i64)).collect();
    let vals: Vec<f32> = (0..nnz).map(|_| r.f32_in(-1.0, 1.0)).collect();
    (vals, col_idx, row_ptr)
}

pub fn spmv_case(label: &str, n_rows: usize, n_cols: usize, avg_nnz: usize, runs: usize) -> Case {
    let (program, env) = spmv_program();
    let mut kernels = KernelRegistry::new();
    spmv_register_kernels(&mut kernels);
    let (vals, col_idx, row_ptr) = spmv_data(31, n_rows, n_cols, avg_nnz);
    let x = crate::data::f32s(32, n_cols, -1.0, 1.0);
    let inputs = vec![
        InputValue::I64(n_rows as i64),
        InputValue::I64(n_cols as i64),
        InputValue::I64(vals.len() as i64),
        InputValue::ArrayF32(vals),
        InputValue::ArrayI64(col_idx),
        InputValue::ArrayI64(row_ptr),
        InputValue::ArrayF32(x),
    ];
    Case {
        name: "spmv".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels,
        reference: Box::new(move |inp| {
            let nr = match &inp[0] {
                InputValue::I64(x) => *x as usize,
                _ => unreachable!(),
            };
            let (vals, col_idx, row_ptr, x) = (
                as_f32s(&inp[3]),
                as_i64s(&inp[4]),
                as_i64s(&inp[5]),
                as_f32s(&inp[6]),
            );
            let t0 = std::time::Instant::now();
            let y = spmv_reference(nr, vals, col_idx, row_ptr, x);
            (t0.elapsed(), vec![OutputValue::ArrayF32(y)])
        }),
        runs,
        tol: 0.0,
    }
}

/// (label, n_rows, n_cols, avg_nnz, runs)
pub fn spmv_datasets() -> Vec<(&'static str, usize, usize, usize, usize)> {
    vec![
        ("20k×20k", 20_000, 20_000, 8, 5),
        ("100k×100k", 100_000, 100_000, 8, 3),
    ]
}

// ---------------------------------------------------------------------------
// Weighted histogram with data-dependent bins.
// ---------------------------------------------------------------------------

/// Reference: sequential accumulation in item order (bit-exact against
/// the compiled loop, which accumulates in the same order), then the
/// per-item lookups and the combined output.
pub fn histogram_reference(bins: usize, data: &[i64], weights: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut hist = vec![0f32; bins];
    for (k, &b) in data.iter().enumerate() {
        hist[b as usize] += weights[k];
    }
    let combined: Vec<f32> = data
        .iter()
        .zip(weights)
        .map(|(&b, &w)| hist[b as usize] + w * w)
        .collect();
    (hist, combined)
}

/// Weighted histogram: a sequential loop of point updates at runtime
/// bins, then a `gather` that reads each item's final bin total back.
/// The long-lived `wsq` staging buffer coexists with the histogram, so
/// the merge pass *attempts* to fold the histogram into it and must
/// reject with [`MergeReject::RuntimeIndexed`] — the histogram block's
/// footprint story is runtime data.
///
/// [`MergeReject::RuntimeIndexed`]: arraymem_core::MergeReject
pub fn histogram_program() -> (Program, Env) {
    let mut bld = Builder::new("histogram");
    let n = bld.scalar_param("hist_n", ElemType::I64);
    let b = bld.scalar_param("hist_b", ElemType::I64);
    let data = bld.array_param("hist_data", ElemType::I64, vec![p(n)]);
    let weights = bld.array_param("hist_w", ElemType::F32, vec![p(n)]);
    let mut body = bld.block();

    // Long-lived affine block, allocated before the histogram and used
    // after it: the merge candidate the histogram is tested against.
    let wsq = body.map_lambda("wsq", p(n), vec![weights], ElemType::F32, |bb, ps| {
        vec![bb.scalar(
            "sq",
            ElemType::F32,
            ScalarExp::bin(BinOp::Mul, ScalarExp::var(ps[0]), ScalarExp::var(ps[0])),
        )]
    });

    let hist0 = body.replicate("hist0", vec![p(b)], ScalarExp::f32(0.0));
    let hist_p = body.loop_param("hist", hist0);
    let k = body.loop_index("hist_k");
    let mut lb = bld.block();
    let bin = lb.scalar(
        "bin",
        ElemType::I64,
        ScalarExp::Index(data, vec![ScalarExp::var(k)]),
    );
    let cur = lb.scalar(
        "cur",
        ElemType::F32,
        ScalarExp::Index(hist_p, vec![ScalarExp::var(bin)]),
    );
    let w = lb.scalar(
        "w",
        ElemType::F32,
        ScalarExp::Index(weights, vec![ScalarExp::var(k)]),
    );
    let hist_next = lb.update_scalar(
        "hist'",
        hist_p,
        vec![ScalarExp::var(bin)],
        ScalarExp::bin(BinOp::Add, ScalarExp::var(cur), ScalarExp::var(w)),
    );
    let lbody = lb.finish(vec![hist_next]);
    let outs = body.loop_(
        vec!["hist_final"],
        vec![(hist_p, bld.ty(hist0))],
        vec![hist0],
        k,
        p(n),
        lbody,
    );
    let hist_final = outs[0];

    // The opaque read-back: each item's final bin total.
    let sampled = body.gather("sampled", hist_final, data);
    let combined = body.map_lambda(
        "combined",
        p(n),
        vec![sampled, wsq],
        ElemType::F32,
        |bb, ps| {
            vec![bb.scalar(
                "s",
                ElemType::F32,
                ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::var(ps[1])),
            )]
        },
    );
    let blk = body.finish(vec![hist_final, combined]);

    let mut env = Env::new();
    env.assume_ge(n, 1);
    env.assume_ge(b, 1);
    // Bins never outnumber items: lets the merge pass prove the histogram
    // would *fit* inside `wsq`, so its rejection is about footprints
    // (runtime-indexed), not size.
    env.assume_le(b, p(n));
    (bld.finish(blk), env)
}

pub fn histogram_case(label: &str, n: usize, bins: usize, runs: usize) -> Case {
    let (program, env) = histogram_program();
    let data = crate::data::i64s(41, n, 0, bins as i64);
    let weights = crate::data::f32s(42, n, 0.0, 1.0);
    let inputs = vec![
        InputValue::I64(n as i64),
        InputValue::I64(bins as i64),
        InputValue::ArrayI64(data),
        InputValue::ArrayF32(weights),
    ];
    Case {
        name: "histogram".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels: KernelRegistry::new(),
        reference: Box::new(move |inp| {
            let bins = match &inp[1] {
                InputValue::I64(x) => *x as usize,
                _ => unreachable!(),
            };
            let (data, weights) = (as_i64s(&inp[2]), as_f32s(&inp[3]));
            let t0 = std::time::Instant::now();
            let (hist, combined) = histogram_reference(bins, data, weights);
            (
                t0.elapsed(),
                vec![OutputValue::ArrayF32(hist), OutputValue::ArrayF32(combined)],
            )
        }),
        runs,
        tol: 0.0,
    }
}

/// (label, n, bins, runs)
pub fn histogram_datasets() -> Vec<(&'static str, usize, usize, usize)> {
    vec![
        ("100k/256", 100_000, 256, 5),
        ("1M/1024", 1_000_000, 1024, 3),
    ]
}

// ---------------------------------------------------------------------------
// Index permutation round-trip.
// ---------------------------------------------------------------------------

/// Reference: scatter `x` through `perm`, gather it back (recovering `x`
/// when `perm` is a permutation), and combine with the affine side chain.
pub fn permutation_reference(x: &[f32], perm: &[i64]) -> (Vec<f32>, Vec<f32>) {
    let n = x.len();
    let mut permuted = vec![0f32; n];
    for (k, &j) in perm.iter().enumerate() {
        permuted[j as usize] = x[k];
    }
    let z: Vec<f32> = perm.iter().map(|&j| permuted[j as usize]).collect();
    let w: Vec<f32> = z
        .iter()
        .zip(x)
        .map(|(&zi, &xi)| zi + (2.0 * xi + 1.0))
        .collect();
    (z, w)
}

/// Scatter/gather round-trip through a runtime permutation. The scatter
/// is the only write to the scratch destination, so this workload fires
/// all three runtime-index rejections at once: the scatter is a recorded
/// short-circuit candidate killed by
/// [`RejectReason::RuntimeIndexedWrite`], the scratch block coexists
/// with the affine `y` block and merge rejects it with
/// [`MergeReject::RuntimeIndexed`], and parallel safety pins the scatter
/// serial with [`ParReject::RuntimeIndexedWrite`].
///
/// [`RejectReason::RuntimeIndexedWrite`]: arraymem_core::RejectReason
/// [`MergeReject::RuntimeIndexed`]: arraymem_core::MergeReject
/// [`ParReject::RuntimeIndexedWrite`]: arraymem_core::ParReject
pub fn permutation_program() -> (Program, Env) {
    let mut bld = Builder::new("permutation");
    let n = bld.scalar_param("perm_n", ElemType::I64);
    let x = bld.array_param("perm_x", ElemType::F32, vec![p(n)]);
    let perm = bld.array_param("perm_perm", ElemType::I64, vec![p(n)]);
    let mut body = bld.block();

    // Long-lived affine block predating the scratch — the merge pass's
    // host candidate.
    let y = body.map_lambda("y", p(n), vec![x], ElemType::F32, |bb, ps| {
        vec![bb.scalar(
            "t",
            ElemType::F32,
            ScalarExp::bin(
                BinOp::Add,
                ScalarExp::bin(BinOp::Mul, ScalarExp::f32(2.0), ScalarExp::var(ps[0])),
                ScalarExp::f32(1.0),
            ),
        )]
    });

    let scr = body.scratch("scr", ElemType::F32, vec![p(n)]);
    let permuted = body.scatter("permuted", scr, perm, x);
    let z = body.gather("z", permuted, perm);
    let w = body.map_lambda("w", p(n), vec![z, y], ElemType::F32, |bb, ps| {
        vec![bb.scalar(
            "s",
            ElemType::F32,
            ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::var(ps[1])),
        )]
    });
    let blk = body.finish(vec![z, w]);

    let mut env = Env::new();
    env.assume_ge(n, 1);
    (bld.finish(blk), env)
}

/// A deterministic Fisher–Yates permutation of `0..n`.
pub fn permutation_data(seed: u64, n: usize) -> Vec<i64> {
    let mut r = crate::data::rng(seed);
    let mut perm: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        perm.swap(i, r.usize_in(i + 1));
    }
    perm
}

pub fn permutation_case(label: &str, n: usize, runs: usize) -> Case {
    let (program, env) = permutation_program();
    let x = crate::data::f32s(51, n, -1.0, 1.0);
    let perm = permutation_data(52, n);
    let inputs = vec![
        InputValue::I64(n as i64),
        InputValue::ArrayF32(x),
        InputValue::ArrayI64(perm),
    ];
    Case {
        name: "permutation".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels: KernelRegistry::new(),
        reference: Box::new(move |inp| {
            let (x, perm) = (as_f32s(&inp[1]), as_i64s(&inp[2]));
            let t0 = std::time::Instant::now();
            let (z, w) = permutation_reference(x, perm);
            (
                t0.elapsed(),
                vec![OutputValue::ArrayF32(z), OutputValue::ArrayF32(w)],
            )
        }),
        runs,
        tol: 0.0,
    }
}

/// (label, n, runs)
pub fn permutation_datasets() -> Vec<(&'static str, usize, usize)> {
    vec![("100k", 100_000, 5), ("1M", 1_000_000, 3)]
}
