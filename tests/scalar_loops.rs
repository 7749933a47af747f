//! Scalar loops run typed, and the instruction loop is their oracle.
//!
//! In `Memory` a loop whose body is scalar code, point reads and point
//! updates by a scalar runs typed, in the strips at width 1; `Pure` and
//! `Checked` step it one instruction at a time. Small histogram-shaped
//! loops are enumerated over the carried array's element type and rank,
//! the number of bins, index arrays in range, negative, past the extent or
//! repeated, trip counts 0, 1 and 5, an integer overflow and a division by
//! zero at a chosen iteration, a coordinate that is a size of the counter,
//! a read of an element stored in the same iteration, carried scalars that
//! swap, carried arrays that swap or rotate, a map in the body, a value
//! cast to its statement's type, and an index that fails on a value
//! stored in the same iteration — its error must name that value. Each
//! runs in all three modes: the outputs must agree bit for bit and the
//! error texts byte for byte, and `Stats::loop_iters_stepped` says whether
//! `Memory` ran the loop typed.

use arraymem_core::{compile, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode, OutputValue, Session, Stats};
use arraymem_ir::pretty::scrub_uniques;
use arraymem_ir::{BinOp, Builder, ElemType, Program, ScalarExp, Type, Var};
use arraymem_symbolic::Poly;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// `h[b] = h[b] + w[k]` over a carried `[bins]` array.
    Hist,
    /// The same at column 1 of a carried `[bins][2]` array.
    Hist2,
    /// `h[b] = h[b] + 100 / w[k]`.
    Div,
    /// The update's coordinate is `size(k)`, which varies per iteration.
    SizeCoord,
    /// `h[b] = w[k]`, then the stored element is read back into a carried
    /// scalar.
    ReadAfterStore,
    /// Beside the histogram, two carried scalars swap every iteration.
    SwapScalars,
    /// Two carried arrays swap every iteration.
    SwapArrays,
    /// Three carried arrays rotate every iteration.
    RotateArrays,
    /// The body also maps over the weights.
    Map,
    /// Beside the histogram, `y: f64 = b + 1` — an `i64` value bound as
    /// `f64` — folded into a carried `f64` as `y / 2`, a float quotient.
    Coerce,
    /// `h[b]` is stored, read back, and indexes `h`: past the extent, the
    /// error names the value stored in the same iteration.
    StoreThenFail,
}

impl Shape {
    /// Does `Memory` run this loop typed?
    fn typed(self) -> bool {
        !matches!(
            self,
            Shape::SizeCoord | Shape::SwapArrays | Shape::RotateArrays | Shape::Map
        )
    }
}

const SHAPES: [Shape; 11] = [
    Shape::Hist,
    Shape::Hist2,
    Shape::Div,
    Shape::SizeCoord,
    Shape::ReadAfterStore,
    Shape::SwapScalars,
    Shape::SwapArrays,
    Shape::RotateArrays,
    Shape::Map,
    Shape::Coerce,
    Shape::StoreThenFail,
];

/// The weights' element type: booleans are made from `i64` weights.
fn weight_elem(elem: ElemType) -> ElemType {
    match elem {
        ElemType::Bool => ElemType::I64,
        e => e,
    }
}

fn zero(elem: ElemType) -> ScalarExp {
    ScalarExp::Const(match elem {
        ElemType::F32 => arraymem_ir::Constant::F32(0.0),
        ElemType::F64 => arraymem_ir::Constant::F64(0.0),
        ElemType::I64 => arraymem_ir::Constant::I64(0),
        ElemType::Bool => arraymem_ir::Constant::Bool(false),
    })
}

/// `cur` combined with the weight `x`: a sum, or for booleans an `or`.
fn combine(elem: ElemType, cur: ScalarExp, x: ScalarExp) -> ScalarExp {
    match elem {
        ElemType::Bool => {
            let x = ScalarExp::bin(BinOp::Lt, x, ScalarExp::i64(3));
            ScalarExp::bin(BinOp::Or, cur, x)
        }
        _ => ScalarExp::bin(BinOp::Add, cur, x),
    }
}

/// `fn (n, bins, idx: [n]i64, ws: [n]T)`: a loop of `n` iterations over
/// carried arrays of `bins` elements of `elem`; the results are the
/// carried values.
fn program(shape: Shape, elem: ElemType) -> Program {
    let v = ScalarExp::var;
    let mut bld = Builder::new("scalar_loop");
    let n = bld.scalar_param("n", ElemType::I64);
    let bins = bld.scalar_param("bins", ElemType::I64);
    let idx = bld.array_param("idx", ElemType::I64, vec![Poly::var(n)]);
    let ws = bld.array_param("ws", weight_elem(elem), vec![Poly::var(n)]);
    let mut body = bld.block();
    let rank2 = shape == Shape::Hist2;
    let shape_of = |rank2| match rank2 {
        true => vec![Poly::var(bins), Poly::constant(2)],
        false => vec![Poly::var(bins)],
    };
    let h0 = body.replicate_typed("h0", elem, shape_of(rank2), zero(elem));
    let mut inits = vec![h0];
    match shape {
        Shape::ReadAfterStore | Shape::StoreThenFail => {
            inits.push(body.scalar("acc0", elem, zero(elem)))
        }
        Shape::Coerce => inits.push(body.scalar("acc0", ElemType::F64, zero(ElemType::F64))),
        Shape::SwapScalars => {
            inits.push(body.scalar("s0", ElemType::I64, ScalarExp::i64(1)));
            inits.push(body.scalar("t0", ElemType::I64, ScalarExp::i64(2)));
        }
        Shape::SwapArrays | Shape::RotateArrays => {
            let arrays = if shape == Shape::SwapArrays { 1 } else { 2 };
            for _ in 0..arrays {
                inits.push(body.replicate_typed("g0", elem, shape_of(false), zero(elem)));
            }
        }
        _ => {}
    }
    let params: Vec<Var> = inits.iter().map(|i| body.loop_param("p", *i)).collect();
    let k = body.loop_index("k");
    let h = params[0];

    let mut lb = bld.block();
    let b = lb.scalar("b", ElemType::I64, ScalarExp::Index(idx, vec![v(k)]));
    let x = lb.scalar("x", weight_elem(elem), ScalarExp::Index(ws, vec![v(k)]));
    let at = match shape {
        Shape::Hist2 => vec![v(b), ScalarExp::i64(1)],
        Shape::SizeCoord => vec![ScalarExp::Size(Poly::var(k))],
        _ => vec![v(b)],
    };
    let cur = lb.scalar("cur", elem, ScalarExp::Index(h, at.clone()));
    let value = match shape {
        Shape::Div => combine(
            elem,
            v(cur),
            ScalarExp::bin(BinOp::Div, ScalarExp::i64(100), v(x)),
        ),
        Shape::ReadAfterStore => v(x),
        _ => combine(elem, v(cur), v(x)),
    };
    let h1 = lb.update_scalar("h1", h, at.clone(), value);
    let mut yields = vec![h1];
    match shape {
        Shape::ReadAfterStore => {
            let back = lb.scalar("back", elem, ScalarExp::Index(h1, at));
            yields.push(lb.scalar("acc", elem, combine(elem, v(params[1]), v(back))));
        }
        Shape::StoreThenFail => {
            let back = lb.scalar("back", elem, ScalarExp::Index(h1, at));
            let z = lb.scalar("z", elem, ScalarExp::Index(h1, vec![v(back)]));
            yields.push(lb.scalar("acc", elem, combine(elem, v(params[1]), v(z))));
        }
        Shape::Coerce => {
            let one = ScalarExp::i64(1);
            let y = lb.scalar("y", ElemType::F64, ScalarExp::bin(BinOp::Add, v(b), one));
            let half = ScalarExp::bin(BinOp::Div, v(y), ScalarExp::i64(2));
            let acc = ScalarExp::bin(BinOp::Add, v(params[1]), half);
            yields.push(lb.scalar("acc", ElemType::F64, acc));
        }
        Shape::SwapScalars => yields = vec![h1, params[2], params[1]],
        Shape::SwapArrays => yields = vec![params[1], h1],
        Shape::RotateArrays => yields = vec![params[1], params[2], h1],
        Shape::Map => {
            let m = lb.map_lambda("m", Poly::var(n), vec![ws], weight_elem(elem), |mb, ps| {
                vec![mb.scalar("y", weight_elem(elem), v(ps[0]))]
            });
            let y = lb.scalar("y", weight_elem(elem), ScalarExp::Index(m, vec![v(k)]));
            let z = lb.scalar("z", elem, combine(elem, v(cur), v(y)));
            yields = vec![lb.update_scalar("h2", h1, vec![v(b)], v(z))];
        }
        _ => {}
    }
    let lbody = lb.finish(yields);
    let tys: Vec<(Var, Type)> = params.iter().map(|p| (*p, bld.ty(*p))).collect();
    let names = vec!["out"; params.len()];
    let outs = body.loop_(names, tys, inits, k, Poly::var(n), lbody);
    bld.finish(body.finish(outs))
}

/// The index arrays: in range, with a negative index, with one at the
/// extent, and one bin throughout.
fn index_arrays(n: usize, bins: i64) -> Vec<(&'static str, Vec<i64>)> {
    let poisoned =
        |bad: i64| (0..n as i64).map(move |k| if k == 2 { bad } else { k % bins.max(1) });
    vec![
        ("in range", (0..n as i64).map(|k| k % bins.max(1)).collect()),
        ("negative", poisoned(-1).collect()),
        ("at extent", poisoned(bins).collect()),
        ("repeated", vec![bins.max(1) - 1; n]),
    ]
}

/// The weights: `1, 2, 3, …`, and for integers a sum that overflows or a
/// divisor of zero at iteration 2.
fn weight_arrays(n: usize, elem: ElemType) -> Vec<(&'static str, InputValue)> {
    let plain: Vec<i64> = (1..=n as i64).collect();
    let with = |bad: i64| {
        let mut w = plain.clone();
        if n > 2 {
            w[2] = bad;
        }
        InputValue::ArrayI64(w)
    };
    match weight_elem(elem) {
        ElemType::F32 => vec![(
            "1..",
            InputValue::ArrayF32(plain.iter().map(|&x| x as f32).collect()),
        )],
        ElemType::F64 => vec![(
            "1..",
            InputValue::ArrayF64(plain.iter().map(|&x| x as f64).collect()),
        )],
        _ => vec![
            ("1..", InputValue::ArrayI64(plain.clone())),
            ("max at 2", with(i64::MAX)),
            ("0 at 2", with(0)),
        ],
    }
}

fn f32_bits(x: f32) -> String {
    format!("{:08x}", x.to_bits())
}

fn f64_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// A run's outputs bit for bit, or its error text.
fn render(r: Result<(Vec<OutputValue>, Stats), String>) -> String {
    let (out, stats) = match r {
        Ok(ok) => ok,
        Err(e) => return format!("! {}", scrub_uniques(&e)),
    };
    let shown: Vec<String> = out
        .iter()
        .map(|o| match o {
            OutputValue::F32(x) => f32_bits(*x),
            OutputValue::F64(x) => f64_bits(*x),
            OutputValue::I64(x) => format!("{x}"),
            OutputValue::Bool(x) => format!("{x}"),
            OutputValue::ArrayF32(v) => {
                v.iter().map(|x| f32_bits(*x)).collect::<Vec<_>>().join(" ")
            }
            OutputValue::ArrayF64(v) => {
                v.iter().map(|x| f64_bits(*x)).collect::<Vec<_>>().join(" ")
            }
            OutputValue::ArrayI64(v) => format!("{v:?}"),
        })
        .collect();
    format!("{} diags={}", shown.join(" | "), stats.diagnostics.len())
}

#[test]
fn typed_loops_agree_with_the_instruction_loop() {
    let kernels = KernelRegistry::new();
    let mut runs = 0;
    let mut typed_iters = 0;
    let mut failed_after_store = 0;
    for shape in SHAPES {
        let elems: &[ElemType] = match shape {
            Shape::Hist => &[ElemType::F32, ElemType::F64, ElemType::I64, ElemType::Bool],
            Shape::Div => &[ElemType::I64, ElemType::F64],
            Shape::StoreThenFail => &[ElemType::I64],
            _ => &[ElemType::F32, ElemType::I64],
        };
        for &elem in elems {
            let prog = program(shape, elem);
            let compiled = compile(&prog, &Options::optimized())
                .unwrap_or_else(|e| panic!("{shape:?} {elem:?}: {e}"));
            let checks: Vec<_> = compiled.report.checks().cloned().collect();
            let mut session = Session::new();
            let h = session
                .prepare_full(
                    &compiled.program,
                    &kernels,
                    &checks,
                    &compiled.report.merges,
                    &compiled.report.par_safety,
                )
                .expect("prepare");
            for n in [0usize, 1, 5] {
                for bins in [0i64, 1, 3] {
                    for (idx_kind, idx) in index_arrays(n, bins) {
                        for (w_kind, ws) in weight_arrays(n, elem) {
                            let inputs = [
                                InputValue::I64(n as i64),
                                InputValue::I64(bins),
                                InputValue::ArrayI64(idx.clone()),
                                ws,
                            ];
                            let case = format!(
                                "{shape:?} {elem:?} n={n} bins={bins} idx {idx_kind} ws {w_kind}"
                            );
                            let pure = render(run_program(&prog, &inputs, &kernels, Mode::Pure, 1));
                            let memory = session.run_plan(h, &inputs, &kernels, Mode::Memory, 1);
                            let stepped = memory.as_ref().map(|(_, s)| s.loop_iters_stepped).ok();
                            let memory = render(memory);
                            let checked =
                                render(session.run_plan(h, &inputs, &kernels, Mode::Checked, 1));
                            assert_eq!(pure, memory, "{case}: Pure and Memory");
                            assert_eq!(pure, checked, "{case}: Pure and Checked");
                            failed_after_store += (shape == Shape::StoreThenFail
                                && pure.contains("out of bounds"))
                                as usize;
                            if let Some(stepped) = stepped {
                                let want = if shape.typed() { 0 } else { n as u64 };
                                assert_eq!(stepped, want, "{case}: iterations stepped");
                                typed_iters += (n as u64 - stepped) as usize;
                            }
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(runs >= 700, "{runs} runs");
    assert!(typed_iters > 0);
    assert!(failed_after_store > 0);
}
