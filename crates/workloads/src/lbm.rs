//! Lattice-Boltzmann Method, D3Q19 (paper §VI-E; Parboil).
//!
//! A pull-scheme stream-and-collide over a 3D lattice with 19 distribution
//! functions per cell, BGK relaxation, and bounce-back walls at the domain
//! boundary. Each time step maps over all cells producing a fresh
//! `[19]`-row per cell — exactly the paper's mapnest case (§V-A(e)): the
//! per-cell result array would be built in private memory and copied into
//! the step's result; short-circuiting constructs it there directly.

use crate::harness::Case;
use arraymem_exec::{InputValue, KernelRegistry, OutputValue};
use arraymem_ir::{Builder, ElemType, Program, ScalarExp, Var};
use arraymem_symbolic::{Env, Poly};

/// D3Q19 velocity set; direction 0 is rest.
pub const C: [(i64, i64, i64); 19] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];

/// Opposite direction (for bounce-back).
pub const OPP: [usize; 19] = [
    0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
];

/// Lattice weights.
pub const W: [f32; 19] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

const TAU: f32 = 0.6;

fn p(v: Var) -> Poly {
    Poly::var(v)
}

/// One cell's stream (pull) + collide step, generic over how the previous
/// lattice is read so the reference and the kernel share bit-identical
/// arithmetic. `read(cell, q)` returns distribution `q` of `cell`.
#[inline]
pub fn cell_step<R: Fn(i64, usize) -> f32>(
    (x, y, z): (i64, i64, i64),
    dims: (i64, i64, i64),
    read: R,
    out: &mut [f32; 19],
) {
    let (nx, ny, nz) = dims;
    let cell = (z * ny + y) * nx + x;
    let mut fin = [0f32; 19];
    for q in 0..19 {
        let (cx, cy, cz) = C[q];
        let (sx, sy, sz) = (x - cx, y - cy, z - cz);
        fin[q] = if sx < 0 || sx >= nx || sy < 0 || sy >= ny || sz < 0 || sz >= nz {
            // Bounce-back at the wall: reflect the opposite distribution
            // of this cell.
            read(cell, OPP[q])
        } else {
            read((sz * ny + sy) * nx + sx, q)
        };
    }
    let mut rho = 0f32;
    let (mut ux, mut uy, mut uz) = (0f32, 0f32, 0f32);
    for q in 0..19 {
        rho += fin[q];
        ux += C[q].0 as f32 * fin[q];
        uy += C[q].1 as f32 * fin[q];
        uz += C[q].2 as f32 * fin[q];
    }
    ux /= rho;
    uy /= rho;
    uz /= rho;
    let usq = 1.5 * (ux * ux + uy * uy + uz * uz);
    for q in 0..19 {
        let cu = 3.0 * (C[q].0 as f32 * ux + C[q].1 as f32 * uy + C[q].2 as f32 * uz);
        let feq = W[q] * rho * (1.0 + cu + 0.5 * cu * cu - usq);
        out[q] = fin[q] + (feq - fin[q]) / TAU;
    }
}

/// Initial lattice: equilibrium at rest with a density perturbation.
pub fn init_lattice(nx: usize, ny: usize, nz: usize) -> Vec<f32> {
    let cells = nx * ny * nz;
    let mut f = vec![0f32; cells * 19];
    for cidx in 0..cells {
        let x = cidx % nx;
        let rho = 1.0 + 0.01 * ((x * 7 % 13) as f32 / 13.0);
        for q in 0..19 {
            f[cidx * 19 + q] = W[q] * rho;
        }
    }
    f
}

/// Hand-written imperative reference: double-buffered stepping.
pub fn reference(nx: usize, ny: usize, nz: usize, steps: usize, f: &mut Vec<f32>) {
    let cells = nx * ny * nz;
    let mut next = vec![0f32; cells * 19];
    let dims = (nx as i64, ny as i64, nz as i64);
    for _ in 0..steps {
        for z in 0..nz as i64 {
            for y in 0..ny as i64 {
                for x in 0..nx as i64 {
                    let cell = ((z * ny as i64 + y) * nx as i64 + x) as usize;
                    let mut out = [0f32; 19];
                    cell_step((x, y, z), dims, |c, q| f[c as usize * 19 + q], &mut out);
                    next[cell * 19..cell * 19 + 19].copy_from_slice(&out);
                }
            }
        }
        std::mem::swap(f, &mut next);
    }
}

pub fn register_kernels(reg: &mut KernelRegistry) {
    reg.register("lbm_step", |ctx| {
        let nx = ctx.arg_i64(0);
        let ny = ctx.arg_i64(1);
        let nz = ctx.arg_i64(2);
        let (f, out) = (ctx.input::<f32>(0).zip(ctx.rows_mut::<f32>()))
            .expect("lbm_step: lattices must be dense f32");
        // The first cell's coordinates, then a counter: no division per cell.
        let first = ctx.rows.start;
        let (mut x, mut y, mut z) = (first % nx, (first / nx) % ny, first / (nx * ny));
        let read = |c: i64, q: usize| f[c as usize * 19 + q];
        for o in out.chunks_exact_mut(19) {
            cell_step((x, y, z), (nx, ny, nz), read, o.try_into().unwrap());
            x += 1;
            if x == nx {
                (x, y) = (0, y + 1);
            }
            if y == ny {
                (y, z) = (0, z + 1);
            }
        }
    });
}

pub fn program() -> (Program, Env) {
    let mut bld = Builder::new("lbm");
    let nx = bld.scalar_param("lbm_nx", ElemType::I64);
    let ny = bld.scalar_param("lbm_ny", ElemType::I64);
    let nz = bld.scalar_param("lbm_nz", ElemType::I64);
    let steps = bld.scalar_param("lbm_steps", ElemType::I64);
    let cells = p(nx) * p(ny) * p(nz);
    let f0 = bld.array_param(
        "lbm_f",
        ElemType::F32,
        vec![cells.clone(), Poly::constant(19)],
    );
    let mut body = bld.block();

    let param = body.loop_param("F", f0);
    let it = body.loop_index("lbm_it");
    let mut lb = bld.block();
    let fnext = lb.map_kernel_acc(
        "F'",
        "lbm_step",
        cells,
        vec![Poly::constant(19)],
        ElemType::F32,
        vec![param],
        vec![ScalarExp::var(nx), ScalarExp::var(ny), ScalarExp::var(nz)],
        vec![0],
    );
    let lbody = lb.finish(vec![fnext]);
    let ffinal = body.loop_(
        vec!["Ffinal"],
        vec![(param, bld.ty(f0))],
        vec![f0],
        it,
        p(steps),
        lbody,
    )[0];
    let blk = body.finish(vec![ffinal]);

    let mut env = Env::new();
    env.assume_ge(nx, 1);
    env.assume_ge(ny, 1);
    env.assume_ge(nz, 1);
    env.assume_ge(steps, 1);
    (bld.finish(blk), env)
}

pub fn case(label: &str, dims: (usize, usize, usize), steps: usize, runs: usize) -> Case {
    let (nx, ny, nz) = dims;
    let (program, env) = program();
    let mut kernels = KernelRegistry::new();
    register_kernels(&mut kernels);
    let inputs = vec![
        InputValue::I64(nx as i64),
        InputValue::I64(ny as i64),
        InputValue::I64(nz as i64),
        InputValue::I64(steps as i64),
        InputValue::ArrayF32(init_lattice(nx, ny, nz)),
    ];
    Case {
        name: "lbm".into(),
        dataset: label.into(),
        program,
        env,
        inputs,
        kernels,
        reference: Box::new(move |inp| {
            let steps = match &inp[3] {
                InputValue::I64(x) => *x as usize,
                _ => unreachable!(),
            };
            let mut f = match &inp[4] {
                InputValue::ArrayF32(d) => d.clone(),
                _ => unreachable!(),
            };
            let t0 = std::time::Instant::now();
            reference(nx, ny, nz, steps, &mut f);
            (t0.elapsed(), vec![OutputValue::ArrayF32(f)])
        }),
        runs,
        tol: 1e-4,
    }
}

/// One dataset row: label, lattice dims, timesteps, measured runs.
pub type Dataset = (&'static str, (usize, usize, usize), usize, usize);

/// The paper's Table IV datasets (Parboil "short"/"long"), scaled.
pub fn datasets() -> Vec<Dataset> {
    vec![("short", (32, 32, 16), 3, 4), ("long", (32, 32, 16), 30, 2)]
}
