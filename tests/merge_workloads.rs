//! The merge pass on every workload — bit-identical outputs, lower peak
//! memory, no sanitizer findings.
//!
//! One persistent [`Session`] runs every workload with the pass off and
//! on in both `Memory` and `Checked` mode, so merged plans prove themselves against block recycling from
//! *other* programs' runs too.

use arraymem_core::{compile, Options};
use arraymem_exec::{Mode, OutputValue, Session, Stats};
use arraymem_workloads as w;
use arraymem_workloads::Case;

fn smoke_cases() -> Vec<Case> {
    vec![
        w::nw::case("256", 16, 16, 2),
        w::lud::case("128", 8, 16, 2),
        w::hotspot::case("128", 128, 8, 2),
        w::lbm::case("short", (16, 16, 8), 3, 2),
        w::optionpricing::case("medium", 2048, 32, 2),
        w::locvolcalib::case("small", 16, 64, 16, 2),
        w::nn::case("8552", 8552, 8, 2),
    ]
}

fn run(case: &Case, session: &mut Session, merge: bool, mode: Mode) -> (Vec<OutputValue>, Stats) {
    let opts = Options {
        merge,
        ..Options::optimized()
    }
    .with_env(case.env.clone());
    let compiled = compile(&case.program, &opts)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", case.name));
    let checks: Vec<_> = compiled.report.checks().cloned().collect();
    let h = session
        .prepare_full(
            &compiled.program,
            &case.kernels,
            &checks,
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", case.name));
    let threads = if mode == Mode::Checked { 1 } else { 2 };
    session
        .run_plan(h, &case.inputs, &case.kernels, mode, threads)
        .unwrap_or_else(|e| panic!("{}: run failed: {e}", case.name))
}

fn assert_bit_identical(case: &Case, off: &[OutputValue], on: &[OutputValue]) {
    assert_eq!(off.len(), on.len(), "{}: arity changed by merge", case.name);
    for (k, (a, b)) in off.iter().zip(on).enumerate() {
        assert!(
            a.approx_eq(b, 0.0),
            "{}: output {k} not bit-identical with merging enabled",
            case.name
        );
    }
}

/// Merging is invisible in outputs, visible in the peak-live ledger: never
/// higher, strictly lower wherever the pass actually engaged (a Share
/// merge or a carried release) — and the pass must engage on a
/// meaningful share of the suite, the two ping-pong stencils (hotspot,
/// lbm) through carried releases.
#[test]
fn merge_reduces_peak_memory_with_identical_outputs() {
    let mut session = Session::new();
    let mut fired = Vec::new();
    for case in smoke_cases() {
        for mode in [Mode::Memory, Mode::Checked] {
            let (out_off, stats_off) = run(&case, &mut session, false, mode);
            let (out_on, stats_on) = run(&case, &mut session, true, mode);
            assert_bit_identical(&case, &out_off, &out_on);
            assert_eq!(
                stats_off.blocks_merged, 0,
                "{}: unmerged baseline",
                case.name
            );
            assert!(
                stats_on.peak_bytes_live <= stats_off.peak_bytes_live,
                "{}/{mode:?}: merging raised peak live bytes ({} -> {})",
                case.name,
                stats_off.peak_bytes_live,
                stats_on.peak_bytes_live
            );
            let engaged = stats_on.blocks_merged > 0 || stats_on.carried_releases > 0;
            if engaged {
                assert!(
                    stats_on.peak_bytes_live < stats_off.peak_bytes_live,
                    "{}/{mode:?}: pass engaged ({} merged, {} carried) but peak unchanged ({} B)",
                    case.name,
                    stats_on.blocks_merged,
                    stats_on.carried_releases,
                    stats_off.peak_bytes_live
                );
            }
            if stats_on.carried_releases > 0 {
                assert!(
                    stats_on.color_slab_hits > 0,
                    "{}/{mode:?}: carried releases never recycled through the slab",
                    case.name
                );
            }
            assert!(
                stats_on.diagnostics.is_empty(),
                "{}/{mode:?}: sanitizer findings under merging: {:?}",
                case.name,
                stats_on.diagnostics
            );
            if matches!(case.name.as_str(), "hotspot" | "lbm") {
                assert!(
                    stats_on.carried_releases > 0,
                    "{}/{mode:?}: the ping-pong loop's carried block was never released",
                    case.name
                );
            }
            if mode == Mode::Memory {
                println!(
                    "{:>14}: merged {} blocks, {} carried releases, peak {} -> {} B",
                    case.name,
                    stats_on.blocks_merged,
                    stats_on.carried_releases,
                    stats_off.peak_bytes_live,
                    stats_on.peak_bytes_live
                );
                if engaged {
                    fired.push(case.name.clone());
                }
            }
        }
    }
    assert!(
        fired.len() >= 5,
        "merge pass engaged on only {} of 7 workloads: {fired:?}",
        fired.len()
    );
}
