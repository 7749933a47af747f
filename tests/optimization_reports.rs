//! Integration: the short-circuiting *reports* match what the paper says
//! happens on each benchmark (§VI case studies) — which candidates
//! succeed, which fail, and why.

use arraymem_workloads as w;

fn report_of(case: &w::Case) -> arraymem_core::Report {
    case.compile(true).report
}

#[test]
fn nw_both_halves_circuit() {
    let r = report_of(&w::nw::case("r", 6, 4, 2));
    // Two update candidates (first and second half), both succeed.
    assert_eq!(r.candidates.len(), 2, "{:?}", r.candidates);
    assert_eq!(r.successes(), 2, "{:?}", r.candidates);
    // Both anti-diagonal mapnests construct their blocks in place.
    assert!(r.in_place_maps >= 2);
}

/// Without the `n = q·b + 1` shape relation, NW's Fig. 9 proof cannot go
/// through and the compiler must fail conservatively (paper §III-D: the
/// failure costs 1.1-1.5× but is never wrong).
#[test]
fn nw_without_env_fails_conservatively() {
    let case = w::nw::case("r", 6, 4, 2);
    let compiled =
        arraymem_core::compile(&case.program, &arraymem_core::Options::optimized()).unwrap();
    assert_eq!(compiled.report.successes(), 0);
    // And it still computes the right answer.
    let (out, _) = arraymem_exec::run_program(
        &compiled.program,
        &case.inputs,
        &case.kernels,
        arraymem_exec::Mode::Memory,
        1,
    )
    .unwrap();
    let (_, expect) = (case.reference)(&case.inputs);
    assert!(expect[0].approx_eq(&out[0], 0.0));
}

#[test]
fn lud_diagonal_fails_perimeter_and_interior_succeed() {
    let r = report_of(&w::lud::case("r", 4, 8, 2));
    let diag_fails = r
        .candidates
        .iter()
        .filter(|c| c.root.starts_with("diagX") && !c.succeeded)
        .count();
    assert_eq!(diag_fails, 1, "{:?}", r.candidates);
    // Every failed candidate carries a structured rejection kind, not
    // just a prose reason.
    assert!(r
        .candidates
        .iter()
        .all(|c| c.succeeded || c.rejection.is_some()));
    let successes: Vec<&str> = r
        .candidates
        .iter()
        .filter(|c| c.succeeded)
        .map(|c| c.root.as_str())
        .collect();
    assert!(successes.iter().any(|s| s.starts_with("rowX")));
    assert!(successes.iter().any(|s| s.starts_with("colX")));
    assert!(successes.iter().any(|s| s.starts_with("intX")));
}

#[test]
fn hotspot_concat_elides_all_three_parts() {
    let r = report_of(&w::hotspot::case("r", 16, 2, 2));
    // top, mid, bottom — all constructed in the result memory.
    assert_eq!(r.successes(), 3, "{:?}", r.candidates);
    assert!(r
        .candidates
        .iter()
        .all(|c| c.kind == arraymem_core::short_circuit::CandidateKind::Concat));
}

#[test]
fn lbm_mapnest_is_in_place() {
    let r = report_of(&w::lbm::case("r", (4, 4, 2), 2, 2));
    assert!(r.in_place_maps >= 1);
}

#[test]
fn nn_reduce_result_circuits() {
    let r = report_of(&w::nn::case("r", 128, 4, 2));
    assert_eq!(r.successes(), 1, "{:?}", r.candidates);
}

#[test]
fn optionpricing_reduction_update_circuits() {
    let r = report_of(&w::optionpricing::case("r", 64, 8, 2));
    assert!(r.successes() >= 1, "{:?}", r.candidates);
    assert!(r.in_place_maps >= 1); // the path-generation mapnest
}

#[test]
fn locvolcalib_mapnest_is_in_place() {
    let r = report_of(&w::locvolcalib::case("r", 4, 16, 4, 2));
    assert!(r.in_place_maps >= 1);
}

/// The pipeline's own report: every enabled stage runs, in its declared
/// order, and each [`arraymem_core::PassRun`] carries before/after stats.
#[test]
fn compile_report_lists_stages_in_order_with_timings() {
    let case = w::nw::case("r", 6, 4, 2);
    let compiled = case.compile(true);
    let names: Vec<&str> = compiled
        .compile_report
        .passes
        .iter()
        .map(|p| p.name)
        .collect();
    assert_eq!(
        names,
        [
            "introduce",
            "antiunify",
            "hoist",
            "short_circuit",
            "merge",
            "cleanup",
            "par_safety",
            "release"
        ],
        "standard pipeline stage order"
    );
    let intro = compiled.compile_report.pass("introduce").unwrap();
    assert!(
        intro.after.allocs > intro.before.allocs,
        "introduce must insert allocs: {:?} -> {:?}",
        intro.before,
        intro.after
    );
    let sc = compiled.compile_report.pass("short_circuit").unwrap();
    assert!(
        sc.after.elided_updates > sc.before.elided_updates,
        "short_circuit must elide NW's updates: {:?} -> {:?}",
        sc.before,
        sc.after
    );
    assert!(compiled.compile_report.total_time >= intro.time);
    // An unoptimized compile skips the short-circuit stage entirely.
    let unopt = case.compile(false);
    assert!(unopt.compile_report.pass("short_circuit").is_none());
    assert!(unopt.compile_report.pass("introduce").is_some());
    // And the two configurations stamp different pipeline fingerprints.
    assert_ne!(
        compiled.program.pipeline_fingerprint,
        unopt.program.pipeline_fingerprint
    );
    assert_eq!(
        compiled.program.pipeline_fingerprint,
        compiled.compile_report.pipeline_fingerprint
    );
}

/// Compile-time sanity: short-circuiting adds bounded overhead (the paper
/// reports ~10%, with NW the worst at 17s due to the SMT solver; our
/// symbolic engine stays well under a second even for NW).
#[test]
fn compile_time_is_bounded() {
    let case = w::nw::case("r", 64, 16, 2);
    let t0 = std::time::Instant::now();
    let _ = case.compile(true);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "short-circuiting took {:?}",
        t0.elapsed()
    );
}

/// Ablation mechanisms: each disabled ingredient defeats exactly the
/// candidates it enables.
#[test]
fn ablation_no_hoisting_defeats_hotspot_concat() {
    let case = w::hotspot::case("r", 16, 2, 2);
    let compiled = arraymem_core::compile(
        &case.program,
        &arraymem_core::Options {
            hoist: false,
            ..arraymem_core::Options::optimized().with_env(case.env.clone())
        },
    )
    .unwrap();
    // Without hoisting, the concat's allocation comes after the parts'
    // definitions: safety property 2 fails for all three — and the
    // structured rejection says so, machine-readably.
    assert_eq!(
        compiled.report.successes(),
        0,
        "{:?}",
        compiled.report.candidates
    );
    assert!(compiled
        .report
        .candidates
        .iter()
        .all(|c| c.rejection == Some(arraymem_core::RejectReason::DestinationNotAllocated)));
    // The same rejections surface as pipeline remarks anchored at the
    // candidates' statements.
    let rejected: Vec<_> = compiled.compile_report.rejections().collect();
    assert_eq!(rejected.len(), compiled.report.candidates.len());
    assert!(rejected.iter().all(|(r, kind)| r.pass == "short_circuit"
        && r.stm.is_some()
        && *kind == arraymem_core::RejectReason::DestinationNotAllocated));
    // Still correct.
    let (out, _) = arraymem_exec::run_program(
        &compiled.program,
        &case.inputs,
        &case.kernels,
        arraymem_exec::Mode::Memory,
        1,
    )
    .unwrap();
    let (_, expect) = (case.reference)(&case.inputs);
    assert!(expect[0].approx_eq(&out[0], case.tol));
}

#[test]
fn ablation_no_mapnest_restores_row_copies() {
    let case = w::lbm::case("r", (4, 4, 2), 2, 2);
    let compiled = arraymem_core::compile(
        &case.program,
        &arraymem_core::Options {
            mapnest_in_place: false,
            ..arraymem_core::Options::optimized().with_env(case.env.clone())
        },
    )
    .unwrap();
    assert_eq!(compiled.report.in_place_maps, 0);
    let (out, stats) = arraymem_exec::run_program(
        &compiled.program,
        &case.inputs,
        &case.kernels,
        arraymem_exec::Mode::Memory,
        1,
    )
    .unwrap();
    assert!(stats.bytes_copied > 0, "row copies must be back");
    let (_, expect) = (case.reference)(&case.inputs);
    assert!(expect[0].approx_eq(&out[0], case.tol));
}

/// Every lambda map of the irregular workloads is a straight line of
/// arithmetic: `Memory` runs all of their elements in strips and says so
/// in the plan. A body with a `select` evaluates only the arm it picks,
/// which only the element-wise evaluator does — every element counts;
/// so does every element of a body that reads `a[i]`, takes a size over
/// its parameter, branches or makes an array. A body that reads values
/// fixed for the map — an outer scalar, a size over one — runs in strips.
#[test]
fn irregular_lambda_maps_run_in_strips() {
    use arraymem_exec::{InputValue, KernelRegistry, Mode, Session};
    use arraymem_ir::builder::BlockBuilder;
    use arraymem_ir::{BinOp, Builder, ElemType, ScalarExp, Type, UnOp, Var};
    use arraymem_lmad::Transform;
    use arraymem_symbolic::Poly;
    let run = |program: &arraymem_ir::Program, kernels: &KernelRegistry, inputs: &[InputValue]| {
        let mut session = Session::new();
        let h = session
            .prepare_full(program, kernels, &[], &[], &[])
            .expect("prepare");
        let plan = session.plan(h).pretty();
        let (_, stats) = session
            .run_plan(h, inputs, kernels, Mode::Memory, 1)
            .expect("run");
        (plan, stats)
    };
    for case in [
        w::irregular::histogram_case("r", 5000, 64, 1),
        w::irregular::spmv_case("r", 700, 700, 8, 1),
        w::irregular::permutation_case("r", 5000, 1),
    ] {
        let compiled = case.compile(true);
        let (plan, stats) = run(&compiled.program, &case.kernels, &case.inputs);
        let maps = plan.matches("<- map_lambda").count();
        assert!(maps >= 1, "{}", case.name);
        assert_eq!(
            plan.matches("] strip\n").count(),
            maps,
            "{}:\n{plan}",
            case.name
        );
        assert!(stats.kernel_launches >= 5000, "{}", case.name);
        assert_eq!(stats.lambda_elems_elementwise, 0, "{}", case.name);
    }

    // `y = body(x, k)` over `xs: [w]f32` and `ks: [w]i64`, beside the
    // outer `n: i64`, `s: f32` and `ts: [4]f32`.
    type Body = fn(&Builder, &mut BlockBuilder, &[Var], &[Var]) -> Var;
    fn f32_of(e: ScalarExp) -> ScalarExp {
        ScalarExp::un(UnOp::ToF32, e)
    }
    fn times(x: Var, e: ScalarExp) -> ScalarExp {
        ScalarExp::bin(BinOp::Mul, ScalarExp::var(x), e)
    }
    fn negative(x: Var) -> ScalarExp {
        ScalarExp::bin(BinOp::Lt, ScalarExp::var(x), ScalarExp::f32(0.0))
    }
    let bodies: [(&str, Body); 6] = [
        ("elementwise(Select)", |_, lb, ps, _| {
            let clamped = ScalarExp::Select(
                Box::new(negative(ps[0])),
                Box::new(ScalarExp::f32(0.0)),
                Box::new(ScalarExp::var(ps[0])),
            );
            lb.scalar("y", ElemType::F32, clamped)
        }),
        ("elementwise(Index)", |_, lb, ps, outer| {
            let t1 = ScalarExp::Index(outer[2], vec![ScalarExp::i64(1)]);
            lb.scalar("y", ElemType::F32, times(ps[0], t1))
        }),
        ("elementwise(VaryingSize)", |_, lb, ps, _| {
            let size = ScalarExp::Size(Poly::var(ps[1]) + Poly::constant(1));
            lb.scalar("y", ElemType::F32, times(ps[0], f32_of(size)))
        }),
        ("elementwise(ControlFlow)", |bld, lb, ps, _| {
            let branch = |e| {
                let mut bb = bld.block();
                let v = bb.scalar("b", ElemType::F32, e);
                bb.finish(vec![v])
            };
            let (zero, x) = (branch(ScalarExp::f32(0.0)), branch(ScalarExp::var(ps[0])));
            let ty = vec![Type::Scalar(ElemType::F32)];
            lb.if_(vec!["y"], ty, negative(ps[0]), zero, x)[0]
        }),
        ("elementwise(ArrayOp)", |_, lb, ps, outer| {
            let rev = lb.transform("rev", outer[2], Transform::Reverse(0));
            let r1 = ScalarExp::Index(rev, vec![ScalarExp::i64(1)]);
            lb.scalar("y", ElemType::F32, times(ps[0], r1))
        }),
        ("strip", |_, lb, ps, outer| {
            let size = ScalarExp::Size(Poly::var(outer[0]) * Poly::constant(2));
            let scaled = times(ps[0], ScalarExp::var(outer[1]));
            let y = ScalarExp::bin(BinOp::Add, scaled, f32_of(size));
            lb.scalar("y", ElemType::F32, y)
        }),
    ];
    let width = 3000;
    for (want, body_of) in bodies {
        let mut b = Builder::new("one_map");
        let n = b.scalar_param("cn", ElemType::I64);
        let s = b.scalar_param("cs", ElemType::F32);
        let ts = b.array_param("cts", ElemType::F32, vec![4.into()]);
        let xs = b.array_param("cxs", ElemType::F32, vec![width.into()]);
        let ks = b.array_param("cks", ElemType::I64, vec![width.into()]);
        let mut body = b.block();
        let ys = body.map_lambda("cys", width, vec![xs, ks], ElemType::F32, |lb, ps| {
            vec![body_of(&b, lb, ps, &[n, s, ts])]
        });
        let prog = b.finish(body.finish(vec![ys]));
        let compiled =
            arraymem_core::compile(&prog, &arraymem_core::Options::optimized()).expect("compile");
        let inputs = [
            InputValue::I64(7),
            InputValue::F32(0.5),
            InputValue::ArrayF32(vec![1.0, 2.0, 3.0, 4.0]),
            InputValue::ArrayF32((0..width).map(|i| (i % 7 - 3) as f32).collect()),
            InputValue::ArrayI64((0..width).map(|i| i % 5).collect()),
        ];
        let (plan, stats) = run(&compiled.program, &KernelRegistry::new(), &inputs);
        assert!(plan.contains(&format!("] {want}\n")), "{want}:\n{plan}");
        let elementwise = if want == "strip" { 0 } else { width as u64 };
        assert_eq!(stats.lambda_elems_elementwise, elementwise, "{want}");
    }
}

/// In `Memory` a loop whose body is scalar code and point accesses runs as
/// one typed superinstruction: histogram's loop steps no iteration. A loop
/// whose body makes arrays — NW's anti-diagonals, LUD's steps and their
/// interior panels, LBM's time steps — steps every one, and is counted.
#[test]
fn scalar_loops_run_typed() {
    use arraymem_exec::{Mode, Session};
    let stepped = |case: w::Case| {
        let compiled = case.compile(true);
        let mut session = Session::new();
        let h = session
            .prepare_full(
                &compiled.program,
                &case.kernels,
                &[],
                &compiled.report.merges,
                &compiled.report.par_safety,
            )
            .expect("prepare");
        let (_, stats) = session
            .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, 1)
            .expect("run");
        stats.loop_iters_stepped
    };
    assert_eq!(stepped(w::irregular::histogram_case("r", 5000, 64, 1)), 0);
    let (q, steps) = (6u64, 3u64);
    assert_eq!(stepped(w::nw::case("r", q as usize, 4, 1)), 2 * q - 1);
    let lud = q + q * (q - 1) / 2;
    assert_eq!(stepped(w::lud::case("r", q as usize, 8, 1)), lud);
    assert_eq!(
        stepped(w::lbm::case("r", (4, 4, 2), steps as usize, 1)),
        steps
    );
}
