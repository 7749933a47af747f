use crate::{irregular, nw};
use arraymem_core::{MergeReject, ParReject, RejectReason, RemarkKind};
use arraymem_exec::OutputValue;

#[test]
fn nw_small_validates_and_circuits() {
    let case = nw::case("tiny", 4, 4, 2);
    let (unopt, opt) = case.validate();
    assert!(unopt.bytes_copied > 0, "unopt NW must copy blocks");
    assert_eq!(
        opt.bytes_copied, 0,
        "opt NW must elide all block copies: {opt:?}"
    );
    assert!(opt.bytes_elided > 0);
}

#[test]
fn lud_small_validates_and_circuits_perimeter_and_interior() {
    let case = crate::lud::case("tiny", 4, 4, 2);
    let (unopt, opt) = case.validate();
    assert!(unopt.bytes_copied > 0);
    // The diagonal block keeps its (small) copy; everything else is
    // elided, so the optimized copies are far smaller.
    assert!(
        opt.bytes_copied < unopt.bytes_copied / 4,
        "opt copies {} vs unopt {}",
        opt.bytes_copied,
        unopt.bytes_copied
    );
    assert!(opt.bytes_elided > 0);
}

#[test]
fn hotspot_small_validates_and_elides_concat() {
    let case = crate::hotspot::case("tiny", 32, 4, 2);
    let (unopt, opt) = case.validate();
    assert!(unopt.bytes_copied > 0);
    assert_eq!(opt.bytes_copied, 0, "all hotspot copies elided: {opt:?}");
}

#[test]
fn nn_small_validates_and_elides_reduce_copy() {
    let case = crate::nn::case("tiny", 4096, 8, 2);
    let (unopt, opt) = case.validate();
    assert!(unopt.bytes_copied > 0);
    assert_eq!(opt.bytes_copied, 0, "{opt:?}");
}

#[test]
fn lbm_small_validates_and_builds_rows_in_place() {
    let case = crate::lbm::case("tiny", (8, 8, 4), 3, 2);
    let (unopt, opt) = case.validate();
    // Unopt pays the mapnest's private-tile copy every step.
    assert_eq!(unopt.bytes_copied, (3 * 8 * 8 * 4 * 19 * 4) as u64);
    assert_eq!(opt.bytes_copied, 0, "{opt:?}");
}

#[test]
fn optionpricing_small_validates() {
    let case = crate::optionpricing::case("tiny", 512, 16, 2);
    let (unopt, opt) = case.validate();
    assert!(unopt.bytes_copied > 0);
    assert_eq!(opt.bytes_copied, 0, "{opt:?}");
}

#[test]
fn locvolcalib_small_validates() {
    let case = crate::locvolcalib::case("tiny", 8, 32, 8, 2);
    let (unopt, opt) = case.validate();
    assert!(unopt.bytes_copied > 0);
    assert_eq!(opt.bytes_copied, 0, "{opt:?}");
}

/// Every kernel family computes exactly what its reference does — the
/// ones that take slices and the ones that stage rows (NW, LUD): every
/// output bit for bit (tolerance 0, where `validate` allows 1e-4),
/// optimized and unoptimized, inline and on two workers.
#[test]
fn kernels_match_their_references_bit_for_bit() {
    let cases = [
        crate::hotspot::case("128", 128, 8, 1),
        crate::hotspot::case("512", 512, 8, 1),
        crate::lbm::case("short", (16, 16, 8), 3, 1),
        crate::optionpricing::case("medium", 2048, 32, 1),
        crate::locvolcalib::case("small", 16, 64, 16, 1),
        crate::nn::case("8552", 8552, 8, 1),
        nw::case("8", 8, 16, 1),
        nw::case("33", 33, 16, 1),
        crate::lud::case("8", 8, 16, 1),
        crate::lud::case("16", 16, 16, 1),
        irregular::spmv_case("1000", 1000, 1000, 8, 1),
    ];
    let bits = |outs: &[OutputValue]| -> Vec<Vec<u64>> {
        let bits_of = |o: &OutputValue| match o {
            OutputValue::ArrayI64(v) => v.iter().map(|&x| x as u64).collect(),
            o => o.as_f32s().iter().map(|x| x.to_bits() as u64).collect(),
        };
        outs.iter().map(bits_of).collect()
    };
    for case in &cases {
        let expect = bits(&(case.reference)(&case.inputs).1);
        for optimized in [false, true] {
            let compiled = case.compile(optimized);
            for threads in [1, 2] {
                let mut session = arraymem_exec::Session::new();
                let (out, _) = case.run_in_at(&mut session, &compiled, threads);
                assert!(
                    bits(&out) == expect,
                    "{}/{}: optimized {optimized}, {threads} threads: not the reference's bits",
                    case.name,
                    case.dataset
                );
            }
        }
    }
}

/// `tables` interleaves its three columns per round: one impact sample per
/// measured round, `impact()` their median, one plan build per variant.
#[test]
fn measure_case_reports_medians_of_interleaved_rounds() {
    let m = crate::measure_case(&crate::hotspot::case("tiny", 16, 2, 3));
    assert_eq!(m.round_impacts.len(), 3);
    let mut sorted = m.round_impacts.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(m.impact(), sorted[1]);
    assert_eq!((m.unopt_plan.builds, m.opt_plan.builds), (1, 1));
}

/// The three irregular cases at test scale.
fn irregular_cases() -> Vec<crate::Case> {
    vec![
        irregular::spmv_case("tiny", 64, 48, 4, 2),
        irregular::histogram_case("tiny", 512, 32, 2),
        irregular::permutation_case("tiny", 256, 2),
    ]
}

/// Value, Memory and Checked semantics agree **bit-exactly** on every
/// irregular workload, at 1, 2 and 8 worker threads. Value semantics
/// interprets the memory-free source program; Memory/Checked run the
/// fully optimized compile, so this is the differential test that the
/// sound-degradation story preserves meaning.
#[test]
fn irregular_three_way_equivalence_across_threads() {
    for case in irregular_cases() {
        let opt = case.compile(true);
        let (_, expect) = (case.reference)(&case.inputs);
        for threads in [1usize, 2, 8] {
            let (pure_out, _) = arraymem_exec::run_program(
                &case.program,
                &case.inputs,
                &case.kernels,
                arraymem_exec::Mode::Pure,
                threads,
            )
            .unwrap_or_else(|e| panic!("{}: pure run failed: {e}", case.name));
            let mut session = arraymem_exec::Session::new();
            let (mem_out, _) = case.run_in_at(&mut session, &opt, threads);
            let mut csession = arraymem_exec::Session::new();
            let (chk_out, chk_stats) = case.run_checked_in_at(&mut csession, &opt, threads);
            assert_eq!(
                pure_out, mem_out,
                "{}@{threads}: Value vs Memory outputs differ",
                case.name
            );
            assert_eq!(
                pure_out, chk_out,
                "{}@{threads}: Value vs Checked outputs differ",
                case.name
            );
            assert!(
                chk_stats.diagnostics.is_empty(),
                "{}@{threads}: sanitizer fired:\n{chk_stats:?}",
                case.name
            );
            // And all three agree with the hand-written reference.
            for (k, (e, o)) in expect.iter().zip(&pure_out).enumerate() {
                assert!(
                    e.approx_eq(o, case.tol),
                    "{}@{threads}: output {k} differs from reference",
                    case.name
                );
            }
        }
    }
}

/// The affine-only passes must **reject** runtime-indexed accesses with
/// their closed-enum reasons — a remark is the receipt that the pass saw
/// the construct and declined, rather than silently skipping it.
#[test]
fn irregular_passes_reject_opaque_accesses_with_remarks() {
    // Permutation fires all three rejections at once.
    let case = irregular::permutation_case("tiny", 256, 1);
    let report = case.compile(true).compile_report;
    assert!(
        report.remarks.iter().any(|r| matches!(
            r.kind,
            RemarkKind::CircuitRejected(RejectReason::RuntimeIndexedWrite)
        )),
        "permutation: no short-circuit rejection for the scatter:\n{:#?}",
        report.remarks
    );
    assert!(
        report.remarks.iter().any(|r| matches!(
            r.kind,
            RemarkKind::MergeRejected(MergeReject::RuntimeIndexed)
        )),
        "permutation: no merge rejection for the runtime-indexed block:\n{:#?}",
        report.remarks
    );
    assert!(
        report.remarks.iter().any(|r| matches!(
            r.kind,
            RemarkKind::MapParRejected(ParReject::RuntimeIndexedWrite)
        )),
        "permutation: no parallel-safety rejection for the scatter:\n{:#?}",
        report.remarks
    );

    // Histogram: the gather-read histogram block coexists with `wsq`, so
    // the merge attempt must fail for the runtime-index reason.
    let case = irregular::histogram_case("tiny", 512, 32, 1);
    let report = case.compile(true).compile_report;
    assert!(
        report.remarks.iter().any(|r| matches!(
            r.kind,
            RemarkKind::MergeRejected(MergeReject::RuntimeIndexed)
        )),
        "histogram: no merge rejection for the runtime-indexed block:\n{:#?}",
        report.remarks
    );

    // Spmv is the positive control: the affine row-sum mapnest around the
    // gather still earns its parallel-safety proof.
    let case = irregular::spmv_case("tiny", 64, 48, 4, 1);
    let report = case.compile(true).compile_report;
    assert!(
        report
            .remarks
            .iter()
            .any(|r| matches!(r.kind, RemarkKind::MapParallelSafe)),
        "spmv: the row-sum mapnest lost its parallel-safety proof:\n{:#?}",
        report.remarks
    );
}

/// An out-of-range runtime index is an `Err` under Value and Memory
/// semantics, and a structured [`Diagnostic::IndexOutOfBounds`] (with the
/// lane skipped) under Checked semantics.
///
/// [`Diagnostic::IndexOutOfBounds`]: arraymem_exec::Diagnostic
#[test]
fn irregular_checked_mode_flags_out_of_bounds_indices() {
    use arraymem_exec::{Diagnostic, InputValue, KernelRegistry, Mode};

    let mut bld = arraymem_ir::Builder::new("oob_gather");
    let n = bld.scalar_param("n", arraymem_ir::ElemType::I64);
    let src = bld.array_param(
        "src",
        arraymem_ir::ElemType::F32,
        vec![arraymem_symbolic::Poly::var(n)],
    );
    let idx = bld.array_param(
        "idx",
        arraymem_ir::ElemType::I64,
        vec![arraymem_symbolic::Poly::var(n)],
    );
    let mut body = bld.block();
    let g = body.gather("g", src, idx);
    let blk = body.finish(vec![g]);
    let prog = bld.finish(blk);

    let inputs = vec![
        InputValue::I64(4),
        InputValue::ArrayF32(vec![1.0, 2.0, 3.0, 4.0]),
        InputValue::ArrayI64(vec![2, 7, 0, -1]), // 7 and -1 are out of range
    ];
    let kernels = KernelRegistry::new();

    for mode in [Mode::Pure, Mode::Memory] {
        let r = arraymem_exec::run_program(&prog, &inputs, &kernels, mode, 1);
        // A typed error, not a caught panic (`execution panicked: …`).
        assert!(
            r.as_ref().is_err_and(|e| !e.contains(" panicked: ")),
            "{mode:?}: out-of-bounds gather index must abort, got {r:?}"
        );
    }

    // Checked mode interprets memory annotations, so compile first.
    let compiled = arraymem_core::compile(&prog, &arraymem_core::Options::default())
        .expect("oob probe compiles");
    let (out, stats) =
        arraymem_exec::run_program(&compiled.program, &inputs, &kernels, Mode::Checked, 1)
            .expect("checked mode records the finding and continues");
    let oob: Vec<_> = stats
        .diagnostics
        .iter()
        .filter(|d| matches!(d, Diagnostic::IndexOutOfBounds { .. }))
        .collect();
    assert_eq!(oob.len(), 2, "two poisoned lanes, two findings: {stats:?}");
    // In-range lanes still executed.
    let got = match &out[0] {
        arraymem_exec::OutputValue::ArrayF32(v) => v.clone(),
        other => panic!("unexpected output {other:?}"),
    };
    assert_eq!(got[0], 3.0);
    assert_eq!(got[2], 1.0);
}

/// Every workload, fully optimized, twice through one session under the
/// shadow-memory sanitizer: no uninitialized reads of recycled blocks, no
/// use-after-release, no map races, and every short-circuited footprint
/// pair concretely disjoint.
#[test]
fn all_workloads_run_clean_under_checked_mode() {
    let cases = [
        nw::case("tiny", 4, 4, 2),
        crate::lud::case("tiny", 4, 4, 2),
        crate::hotspot::case("tiny", 32, 4, 2),
        crate::nn::case("tiny", 4096, 8, 2),
        crate::lbm::case("tiny", (8, 8, 4), 3, 2),
        crate::optionpricing::case("tiny", 512, 16, 2),
        crate::locvolcalib::case("tiny", 8, 32, 8, 2),
        irregular::spmv_case("tiny", 64, 48, 4, 2),
        irregular::histogram_case("tiny", 512, 32, 2),
        irregular::permutation_case("tiny", 256, 2),
    ];
    let mut circuits_verified = 0;
    for case in cases {
        let stats = case.validate_checked();
        assert!(
            stats.diagnostics.is_empty() && stats.diagnostics_suppressed == 0,
            "{}/{}: sanitizer fired:\n{stats:?}",
            case.name,
            case.dataset
        );
        assert!(
            stats.cells_checked > 0,
            "{}/{}: sanitizer inspected nothing — shadow layer not engaged",
            case.name,
            case.dataset
        );
        circuits_verified += stats.circuits_verified;
    }
    // The footprint cross-check must actually engage somewhere in the
    // suite — a cross-check that never evaluates proves nothing.
    assert!(
        circuits_verified > 0,
        "no short-circuit check was concretely verified"
    );
}
