//! Mutation-style self-tests of the checked-mode sanitizer.
//!
//! A sanitizer that never fires is indistinguishable from one that does
//! not work. Each test here *injects* one class of memory bug the
//! optimizer's static reasoning normally rules out — a short-circuit
//! forced past its failing non-overlap check, a read of a recycled block
//! that was never rewritten, a release plan skewed one statement early, a
//! map whose result index function collapses iterations onto one cell —
//! and asserts the corresponding diagnostic fires and names the offending
//! statement. Compiler and lowering faults come from the hidden
//! [`Sabotage`] entries (`compile_sabotaged`, `lower_plan_sabotaged`);
//! everything runs through the one production path, prepared with the
//! compile's own records.

use arraymem_core::{
    compile, compile_sabotaged, CircuitCheck, Compiled, Options, ParSafetyRecord, Sabotage,
};
use arraymem_exec::{
    execute_plan, lower_plan_sabotaged, run_program, Diagnostic, InputValue, KernelRegistry,
    MemStore, Mode, OutputValue, PlanHandle, Session, Stats,
};
use arraymem_ir::{BinOp, Builder, ElemType, Exp, Program, ScalarExp, SliceSpec};
use arraymem_lmad::{Dim, IndexFn, Lmad, Transform, TripletSlice};
use arraymem_symbolic::Poly;

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

fn opts(short_circuit: bool) -> Options {
    if short_circuit {
        Options::optimized()
    } else {
        Options::default()
    }
}

/// Prepare `compiled` the way production prepares it: with the compile's
/// own merge and par-safety records, plus `checks`.
fn prepare(
    session: &mut Session,
    compiled: &Compiled,
    checks: &[CircuitCheck],
    kernels: &KernelRegistry,
) -> PlanHandle {
    session
        .prepare_full(
            &compiled.program,
            kernels,
            checks,
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .expect("prepare")
}

/// One checked-mode run of `compiled` in `session`.
fn run_checked_in(
    session: &mut Session,
    compiled: &Compiled,
    checks: &[CircuitCheck],
    kernels: &KernelRegistry,
    threads: usize,
) -> Stats {
    let h = prepare(session, compiled, checks, kernels);
    let (_, stats) = session
        .run_plan(h, &[], kernels, Mode::Checked, threads)
        .expect("checked run");
    stats
}

/// [`run_checked_in`] a fresh session, on one thread.
fn run_checked(compiled: &Compiled, checks: &[CircuitCheck], kernels: &KernelRegistry) -> Stats {
    run_checked_in(&mut Session::new(), compiled, checks, kernels, 1)
}

/// One checked-mode run of `compiled` lowered with `sabotage` (uncached,
/// fresh store) through the executor entry the server calls.
fn run_checked_sabotaged(
    compiled: &Compiled,
    checks: &[CircuitCheck],
    inputs: &[InputValue],
    kernels: &KernelRegistry,
    sabotage: Sabotage,
) -> Stats {
    let plan = lower_plan_sabotaged(
        &compiled.program,
        kernels,
        checks,
        &compiled.report.merges,
        &compiled.report.par_safety,
        sabotage,
    )
    .expect("sabotaged lowering");
    let (_, stats) = execute_plan(
        &mut MemStore::new(),
        &plan,
        inputs,
        kernels,
        Mode::Checked,
        1,
    )
    .expect("sabotaged run");
    stats
}

/// `xss[0:3] ← bs` while `y = copy xss[1:4]` still reads the overlap:
/// constructing `bs` directly in `xss`'s memory would clobber cells the
/// later read needs, so the static write check must reject the candidate —
/// and when `Sabotage::ShortCircuit` pushes it through anyway, the
/// runtime footprint cross-check must catch it.
fn overlapping_update_program() -> Program {
    let bld = Builder::new("forced_overlap");
    let mut b = bld.block();
    let xss = b.replicate_typed("xss", ElemType::I64, vec![c(6)], ScalarExp::i64(1));
    let bs = b.replicate_typed("bs", ElemType::I64, vec![c(3)], ScalarExp::i64(7));
    let s = b.transform(
        "s",
        xss,
        Transform::Slice(vec![TripletSlice::range(c(1), c(3), c(1))]),
    );
    let y = b.copy("y", s);
    let xss2 = b.update(
        "xss2",
        xss,
        SliceSpec::Triplet(vec![TripletSlice::range(c(0), c(3), c(1))]),
        bs,
    );
    bld.finish(b.finish(vec![xss2, y]))
}

#[test]
fn static_check_rejects_the_overlapping_update() {
    let prog = overlapping_update_program();
    let normal = compile(&prog, &opts(true)).expect("compile");
    assert!(
        normal
            .report
            .candidates
            .iter()
            .any(|cand| cand.reason.contains("may overlap")),
        "the overlapping candidate must fail the static write check; report: {:?}",
        normal
            .report
            .candidates
            .iter()
            .map(|cand| (&cand.root, &cand.reason))
            .collect::<Vec<_>>()
    );
    // No forced candidates without the hook.
    assert!(!normal
        .report
        .candidates
        .iter()
        .any(|c| c.reason.contains("forced")));
}

#[test]
fn forced_illegal_short_circuit_is_caught_by_the_footprint_cross_check() {
    let prog = overlapping_update_program();
    let forced = compile_sabotaged(&prog, &opts(true), Sabotage::ShortCircuit).expect("compile");
    assert!(
        forced
            .report
            .candidates
            .iter()
            .any(|c| c.reason.contains("forced")),
        "the hook must push the failing candidate through"
    );
    let checks: Vec<_> = forced.report.checks().cloned().collect();
    assert!(
        !checks.is_empty(),
        "forced circuits must still record their footprints"
    );
    let kernels = KernelRegistry::new();
    let stats = run_checked(&forced, &checks, &kernels);
    let hit = stats.diagnostics.iter().find_map(|d| match d {
        Diagnostic::CircuitOverlap { stm, root, .. } => Some((stm.clone(), root.clone())),
        _ => None,
    });
    let (stm, _root) = hit.unwrap_or_else(|| {
        panic!(
            "expected a CircuitOverlap diagnostic; got {:?}",
            stats.diagnostics
        )
    });
    assert!(
        stm.contains("xss2"),
        "diagnostic must name the circuit statement: {stm}"
    );
    // The rendered finding names statement, offset, and both footprints.
    let shown = format!("{}", &stats.diagnostics[0]);
    assert!(
        shown.contains("offset") && shown.contains("intersects"),
        "{shown}"
    );
}

#[test]
fn reading_a_recycled_never_written_block_is_an_uninit_read() {
    // `y = copy s` of an unwritten scratch array: legal but undefined in
    // content. The first run gets a fresh zero-filled block (clean); the
    // second run in the same session recycles the first run's blocks
    // without zero-fill, so the same read now sees stale cells — exactly
    // the gamble the zeroing elision takes, made visible.
    let bld = Builder::new("stale_scratch");
    let mut b = bld.block();
    let s = b.scratch("s", ElemType::I64, vec![c(4)]);
    let y = b.copy("y", s);
    let prog = bld.finish(b.finish(vec![y]));
    let compiled = compile(&prog, &opts(false)).expect("compile");
    let kernels = KernelRegistry::new();
    let mut session = Session::new();
    let first = run_checked_in(&mut session, &compiled, &[], &kernels, 1);
    assert!(
        first.diagnostics.is_empty(),
        "fresh blocks are zero-filled; nothing to report: {first:?}"
    );
    let second = run_checked_in(&mut session, &compiled, &[], &kernels, 1);
    let stm = second
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::UninitRead { stm, .. } => Some(stm.clone()),
            _ => None,
        })
        .unwrap_or_else(|| {
            panic!(
                "expected an UninitRead on the recycled block; got {:?}",
                second.diagnostics
            )
        });
    assert!(
        stm.contains('y'),
        "diagnostic must blame the reading statement: {stm}"
    );
}

#[test]
fn skewed_release_plan_triggers_use_after_release() {
    // `a` is read by both copies; the skewed plan frees its block right
    // after the first one.
    let bld = Builder::new("early_release");
    let mut bb = bld.block();
    let a = bb.iota("a", c(6));
    let _b = bb.copy("b", a);
    let cc = bb.copy("c", a);
    let prog = bld.finish(bb.finish(vec![cc]));
    let compiled = compile(&prog, &opts(false)).expect("compile");
    let kernels = KernelRegistry::new();
    // The honest plan is clean…
    let honest = run_checked(&compiled, &[], &kernels);
    assert!(honest.diagnostics.is_empty(), "{honest:?}");
    // …the skewed plan is not.
    let skewed = run_checked_sabotaged(&compiled, &[], &[], &kernels, Sabotage::EarlyRelease);
    let (stm, released_after) = skewed
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::UseAfterRelease {
                stm,
                released_after,
                ..
            } => Some((stm.clone(), released_after.clone())),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected a UseAfterRelease; got {:?}", skewed.diagnostics));
    assert!(
        stm.contains('c'),
        "the second copy does the bad read: {stm}"
    );
    assert!(
        released_after.contains('b'),
        "the release fired after the first copy: {released_after}"
    );
}

#[test]
fn overlapping_map_result_layout_is_a_map_race() {
    let bld = Builder::new("race");
    let mut b = bld.block();
    let src = b.iota("src", c(2));
    let m = b.map_lambda("m", c(2), vec![src], ElemType::I64, |lb, ps| {
        let t = lb.scalar(
            "t",
            ElemType::I64,
            ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::i64(1)),
        );
        vec![t]
    });
    let prog = bld.finish(b.finish(vec![m]));
    let mut compiled = compile(&prog, &opts(false)).expect("compile");
    // Sabotage the compiled program: give the map result a zero-stride
    // outer dimension, so both iterations write the same cell — the
    // layout bug the in-place mapnest rules exist to prevent.
    let mut sabotaged = false;
    for stm in &mut compiled.program.body.stms {
        if let Exp::Map(_) = stm.exp {
            let mb = stm.pat[0].mem.as_mut().expect("compiled map has memory");
            mb.ixfn = IndexFn {
                lmads: vec![Lmad::new(c(0), vec![Dim::new(c(2), c(0))])],
            };
            sabotaged = true;
        }
    }
    assert!(sabotaged, "test must find the map statement");
    let kernels = KernelRegistry::new();
    let stats = run_checked(&compiled, &[], &kernels);
    let hit = stats.diagnostics.iter().find_map(|d| match d {
        Diagnostic::MapRace {
            stm,
            iter_a,
            iter_b,
            ..
        } => Some((stm.clone(), *iter_a, *iter_b)),
        _ => None,
    });
    let (stm, ia, ib) =
        hit.unwrap_or_else(|| panic!("expected a MapRace diagnostic; got {:?}", stats.diagnostics));
    assert!(
        stm.contains('m'),
        "diagnostic must name the map statement: {stm}"
    );
    assert!(ia != ib, "the two colliding iterations must differ");
}

/// Two same-size arrays read together by a `concat`: their live ranges
/// overlap, so the merge pass must reject the pair — and when
/// `Sabotage::Merge` folds them into one block anyway, no sanitizer check
/// covers the merge (lifetime merges have no run-time re-proof): the
/// outputs diverge from the pure oracle, which is what guards them.
fn interfering_blocks_program() -> Program {
    let bld = Builder::new("forced_merge");
    let mut b = bld.block();
    let xs = b.replicate_typed("xs", ElemType::I64, vec![c(6)], ScalarExp::i64(1));
    let ys = b.replicate_typed("ys", ElemType::I64, vec![c(6)], ScalarExp::i64(7));
    let z = b.concat("z", vec![xs, ys]);
    bld.finish(b.finish(vec![z]))
}

#[test]
fn merge_pass_rejects_the_interfering_pair() {
    let prog = interfering_blocks_program();
    // Short-circuiting off, so the concat arguments keep their own blocks
    // and reach the merge pass as live, overlapping candidates.
    let normal = compile(
        &prog,
        &Options {
            merge: true,
            ..Options::default()
        },
    )
    .expect("compile");
    assert!(
        normal.report.merges.is_empty(),
        "interfering blocks must not merge: {:?}",
        normal.report.merges
    );
}

#[test]
fn forced_illegal_merge_diverges_from_the_pure_oracle() {
    let prog = interfering_blocks_program();
    let forced = compile_sabotaged(
        &prog,
        &Options {
            merge: true,
            ..Options::default()
        },
        Sabotage::Merge,
    )
    .expect("compile");
    assert_eq!(forced.report.merges.len(), 1, "the hook must force a merge");
    let kernels = KernelRegistry::new();
    let (pure, _) = run_program(&prog, &[], &kernels, Mode::Pure, 1).expect("pure run");
    let mut session = Session::new();
    let h = prepare(&mut session, &forced, &[], &kernels);
    let (out, _) = session
        .run_plan(h, &[], &kernels, Mode::Memory, 1)
        .expect("memory run");
    assert_ne!(out, pure, "sharing a live block must corrupt the result");
    // `ys` was written over `xs` before the concat read either.
    assert_eq!(out, vec![OutputValue::ArrayI64(vec![7; 12])]);
}

/// A map whose result layout collapses every iteration onto one cell:
/// the `par_safety` analysis must reject it (`WriteOverlapNotProven`),
/// and when the record is promoted to `Safe` anyway, the checked VM's
/// pre-dispatch re-proof must refute the forced verdict as a
/// [`Diagnostic::ParOverlap`] and run the map serially.
#[test]
fn forced_parallel_verdict_is_refuted_as_par_overlap() {
    use arraymem_core::par_safety::par_safety;
    use arraymem_core::{ParLevel, ParReject};
    let bld = Builder::new("forced_par");
    let mut b = bld.block();
    let src = b.iota("src", c(512));
    let m = b.map_kernel(
        "m",
        "bump",
        c(512),
        vec![],
        ElemType::I64,
        vec![src],
        vec![],
    );
    let prog = bld.finish(b.finish(vec![m]));
    let mut compiled = compile(&prog, &opts(true)).expect("compile");
    // The honest compile proves the fresh row-major result parallel-safe.
    assert!(
        compiled
            .report
            .par_safety
            .iter()
            .any(|r| r.level == ParLevel::Safe),
        "{:?}",
        compiled.report.par_safety
    );
    // Sabotage the compiled program: a zero-stride outer dimension makes
    // every iteration write cell 0.
    let mut sabotaged = false;
    for stm in &mut compiled.program.body.stms {
        if let Exp::Map(_) = stm.exp {
            let mb = stm.pat[0].mem.as_mut().expect("compiled map has memory");
            mb.ixfn = IndexFn {
                lmads: vec![Lmad::new(c(0), vec![Dim::new(c(512), c(0))])],
            };
            sabotaged = true;
        }
    }
    assert!(sabotaged, "test must find the map statement");
    // Re-analysing the sabotaged program rejects the map...
    let env = arraymem_symbolic::Env::default();
    let honest = par_safety(&compiled.program, &env);
    assert!(
        honest
            .iter()
            .any(|r| r.level == ParLevel::Serial
                && r.reject == Some(ParReject::WriteOverlapNotProven)),
        "{honest:?}"
    );
    // ...and the records are promoted by hand, the way `Sabotage::Parallel`
    // promotes a compile's (the program here was doctored after its
    // compile, so there is no compile to sabotage).
    compiled.report.par_safety = honest
        .into_iter()
        .map(|r| ParSafetyRecord {
            level: ParLevel::Safe,
            forced: true,
            ..r
        })
        .collect();
    let mut kernels = KernelRegistry::new();
    kernels.register("bump", |ctx| {
        let mut v = [0i64];
        for i in ctx.rows.clone() {
            ctx.read_row(0, i, &mut v);
            ctx.write_row(i, &[v[0] + 1]);
        }
    });
    let stats = run_checked_in(&mut Session::new(), &compiled, &[], &kernels, 4);
    let hit = stats.diagnostics.iter().find_map(|d| match d {
        Diagnostic::ParOverlap {
            stm,
            iter_a,
            iter_b,
            ..
        } => Some((stm.clone(), *iter_a, *iter_b)),
        _ => None,
    });
    let (stm, ia, ib) = hit.unwrap_or_else(|| {
        panic!(
            "expected a ParOverlap diagnostic; got {:?}",
            stats.diagnostics
        )
    });
    assert!(stm.contains('m'), "diagnostic must name the map: {stm}");
    assert_ne!(ia, ib, "the two colliding iterations must differ");
    assert_eq!(
        stats.par_checks_verified, 0,
        "a refuted verdict must not count as verified"
    );
    let shown = stats
        .diagnostics
        .iter()
        .map(|d| format!("{d}"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        shown.contains("parallel overlap") && shown.contains("ran serially"),
        "{shown}"
    );
}

/// `Sabotage::Parallel` flows through `compile_sabotaged` into the
/// pipeline: NW's diagonal mapnest — which the analysis genuinely rejects
/// — is promoted to `Safe` (the genuine reject kept on the record), and
/// the checked VM re-proves the promoted verdict
/// concretely before dispatching. NW's per-iteration writes *are*
/// disjoint (only the symbolic proof is out of reach), so the re-proof
/// verifies the promotion and the outputs stay identical.
#[test]
fn sabotaged_parallel_promotes_rejected_maps() {
    use arraymem_core::ParLevel;
    let case = arraymem_workloads::nw::case("forced", 16, 16, 2);
    let honest = compile(
        &case.program,
        &Options::optimized().with_env(case.env.clone()),
    )
    .expect("compile");
    assert!(
        honest
            .report
            .par_safety
            .iter()
            .any(|r| r.level == ParLevel::Serial),
        "{:?}",
        honest.report.par_safety
    );
    assert!(honest.report.par_safety.iter().all(|r| !r.forced));
    let forced = compile_sabotaged(
        &case.program,
        &Options::optimized().with_env(case.env.clone()),
        Sabotage::Parallel,
    )
    .expect("compile");
    let promoted: Vec<_> = forced
        .report
        .par_safety
        .iter()
        .filter(|r| r.forced)
        .collect();
    assert!(
        !promoted.is_empty(),
        "the hook must promote NW's rejected map"
    );
    assert!(promoted
        .iter()
        .all(|r| r.level == ParLevel::Safe && r.reject.is_some()));
    let mut s1 = Session::new();
    let (honest_out, honest_stats) = case.run_checked_in_at(&mut s1, &honest, 4);
    let mut s2 = Session::new();
    let (forced_out, forced_stats) = case.run_checked_in_at(&mut s2, &forced, 4);
    assert_eq!(
        format!("{honest_out:?}"),
        format!("{forced_out:?}"),
        "the forced promotion must not change outputs"
    );
    assert!(
        forced_stats.par_checks_verified > honest_stats.par_checks_verified,
        "the promoted map must be re-proved per dispatch: {} vs {}",
        forced_stats.par_checks_verified,
        honest_stats.par_checks_verified
    );
    assert!(
        forced_stats.diagnostics.is_empty(),
        "{:?}",
        forced_stats.diagnostics
    );
}

/// The merge pass's carried-release records are real claims about
/// loop-carried lifetimes, and checked mode must re-prove them: the
/// `Sabotage::EarlyCarriedRelease` lowering anchors each `ReleaseCarried` at the yield
/// allocation — *before* the loop body has finished reading the carried
/// block — and the sanitizer must catch the resulting read.
#[test]
fn skewed_carried_release_triggers_use_after_release() {
    let case = arraymem_workloads::hotspot::case("64", 64, 6, 2);
    let opts = Options::optimized().with_env(case.env.clone());
    let compiled = compile(&case.program, &opts).expect("compile");
    assert!(
        compiled
            .report
            .merges
            .iter()
            .any(|r| matches!(r, arraymem_core::MergeRecord::CarriedRelease { .. })),
        "hotspot's ping-pong loop must produce a carried-release record"
    );
    let checks: Vec<_> = compiled.report.checks().cloned().collect();
    // The honest lowering is clean under the sanitizer…
    let (_, honest_stats) = case.run_checked_in_at(&mut Session::new(), &compiled, 1);
    assert!(honest_stats.diagnostics.is_empty(), "{honest_stats:?}");
    assert!(
        honest_stats.carried_releases > 0,
        "the honest run must actually exercise the carried release"
    );
    // …the skewed one is not: the carried block is released to the free
    // list while the stencil still reads it.
    let skewed = run_checked_sabotaged(
        &compiled,
        &checks,
        &case.inputs,
        &case.kernels,
        Sabotage::EarlyCarriedRelease,
    );
    assert!(
        skewed
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::UseAfterRelease { .. })),
        "expected a UseAfterRelease from the premature carried release; got {:?}",
        skewed.diagnostics
    );
}

/// A block has one owner: a release through a handle whose block has since
/// been revived for another allocation frees nothing. In this fuzzer trace,
/// `g_rep#0_mem` is both a top-level allocation, which the release plan
/// frees after `g_map`, and the first carried loop's initializer, which
/// that loop's carried release frees in iteration 0; the second carried
/// loop's `alloc` then revives the block for its result. The plan's later
/// release holds the first life's handle and must leave that result live
/// for `g_copy` to read.
#[test]
fn a_stale_release_never_frees_the_blocks_next_owner() {
    const TRACE: &str = "\
op 14 -7875334753003768096 -2106394884903025830 8244531820913844979
op 11 -211876913880235209 -2598913374877259895 438689119226945770
op 1 3464292599735863159 6284072229351697941 3457747673309375591
op 14 5513965029212442620 -3191121059633110713 364066784356957384
op 0 5425657540916481777 -598072535178455437 14768884741102829135
op 7 4291917805409035944 -8729189452733852216 16565645982578447923
op 2 2502484785523913541 2867484376063842380 5468673850295507120
op 9 -8304561217582590211 5846463188972861044 7887883128739691571
op 4 7875928945398421628 341231403635466416 6236925666455830158
";
    let ops = arraymem_fuzz::corpus::parse_entry("stale-release", TRACE)
        .expect("trace")
        .ops;
    let prog = arraymem_fuzz::build_program(&ops).expect("the trace builds a program");
    let kernels = KernelRegistry::new();
    let (pure, _) = run_program(&prog, &[], &kernels, Mode::Pure, 1).expect("pure run");
    let compiled = compile(&prog, &Options::optimized()).expect("compile");
    let checks: Vec<_> = compiled.report.checks().cloned().collect();
    let mut session = Session::new();
    let h = prepare(&mut session, &compiled, &checks, &kernels);
    let (out, stats) = session
        .run_plan(h, &[], &kernels, Mode::Checked, 1)
        .expect("checked run");
    assert!(stats.diagnostics.is_empty(), "{:?}", stats.diagnostics);
    assert!(
        stats.carried_releases > 0,
        "the trace must exercise carried releases"
    );
    assert_eq!(out, pure, "checked mode must compute what pure mode does");
}

/// A sabotaged compile can never be served the honest compile's plan (or
/// the reverse): the forced decisions show in the program or its records,
/// and both are in the plan-cache key.
#[test]
fn sabotaged_compiles_miss_the_honest_plan() {
    let nw = arraymem_workloads::nw::case("forced", 16, 16, 2);
    let merge_only = Options {
        merge: true,
        ..Options::default()
    };
    let cases = [
        (
            Sabotage::ShortCircuit,
            overlapping_update_program(),
            opts(true),
        ),
        (Sabotage::Merge, interfering_blocks_program(), merge_only),
        (
            Sabotage::Parallel,
            nw.program.clone(),
            Options::optimized().with_env(nw.env.clone()),
        ),
    ];
    for (sabotage, prog, options) in &cases {
        let honest = compile(prog, options).expect("compile");
        let forced = compile_sabotaged(prog, options, *sabotage).expect("compile");
        let mut session = Session::new();
        let h_honest = prepare(&mut session, &honest, &[], &nw.kernels);
        let h_forced = prepare(&mut session, &forced, &[], &nw.kernels);
        assert_ne!(h_honest, h_forced, "{sabotage:?} shared the honest plan");
        assert_eq!(prepare(&mut session, &honest, &[], &nw.kernels), h_honest);
        let stats = session.plan_stats();
        assert_eq!((stats.builds, stats.cache_hits), (2, 1), "{sabotage:?}");
    }
}
