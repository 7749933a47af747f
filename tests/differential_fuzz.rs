//! Corpus-driven differential fuzzing of the whole memory pipeline.
//!
//! Built on `arraymem_fuzz`: random decision traces ([`GenOp`]) are
//! interpreted into programs (including gather/scatter and other
//! runtime-indexed shapes), run through every semantics — pure value,
//! unoptimized memory, optimized memory, checked, and a 1/8-worker
//! thread sweep — and the first divergence is delta-debugged to a
//! minimal trace before the test panics with a paste-ready repro
//! (seed, corpus-format trace, pretty IR).
//!
//! The committed corpus under `crates/fuzz/corpus/` participates three
//! ways: `seeds/` replays through all modes, `regressions/` must keep
//! firing the structured rejection each entry was minimized for, and
//! the coverage bitmap that curated the seeds is re-demonstrated from
//! scratch by [`coverage_signal_grows_the_corpus_beyond_its_first_seed`].
//! Regenerate the corpus with
//! `cargo test -p arraymem-bench --test differential_fuzz -- --ignored regen_corpus`.
//!
//! Set `ARRAYMEM_SLOW=1` to raise the iteration counts ~3-5x.

use arraymem_bench::tables::{table_cases, KNOWN_BENCHMARKS};
use arraymem_core::hoist::hoist_allocations;
use arraymem_core::{
    compile, compile_observed, compile_sabotaged, MergeReject, Options, ParReject, RejectReason,
    RemarkKind, Sabotage,
};
use arraymem_exec::{run_program, KernelRegistry, Mode, Session};
use arraymem_fuzz::corpus::{self, CorpusEntry};
use arraymem_fuzz::diff::fail_with_repro;
use arraymem_fuzz::{build_program, minimize, random_ops, run_all_modes, Coverage, GenOp};
use arraymem_symbolic::Rng64;
use arraymem_workloads::harness::scale;

/// Whether the optimized compile merged any memory blocks. The compile
/// report is the authoritative signal: `Stats::blocks_merged` counts
/// lowered merge *records*, which the record-less `run_program` entry
/// point never receives.
fn merged_in_report(r: &arraymem_fuzz::DiffReport) -> bool {
    r.opt_report
        .remarks
        .iter()
        .any(|rm| matches!(rm.kind, RemarkKind::BlocksMerged))
}

/// Build + run one trace through every semantics, reusing the shared
/// sessions so block recycling is exercised across programs.
fn diff_trace(
    ops: &[GenOp],
    checked: &mut Session,
    par: &mut Session,
) -> Result<Option<arraymem_fuzz::DiffReport>, String> {
    match build_program(ops) {
        Some(prog) => run_all_modes(&prog, checked, par).map(Some),
        None => Ok(None),
    }
}

/// A failing trace's predicate for the minimizer: fresh sessions each
/// probe so shrinking cannot be confused by recycled block state.
fn still_diverges(ops: &[GenOp]) -> bool {
    match build_program(ops) {
        Some(prog) => run_all_modes(&prog, &mut Session::new(), &mut Session::new()).is_err(),
        None => false,
    }
}

/// Minimize, rebuild, and panic with the full repro dossier.
fn shrink_and_fail(failure: &str, seed_desc: &str, ops: &[GenOp]) -> ! {
    let min = if still_diverges(ops) {
        minimize(ops, still_diverges)
    } else {
        // Failure depended on shared-session state; report the raw trace.
        ops.to_vec()
    };
    let prog = build_program(&min).expect("minimized trace still builds");
    fail_with_repro(failure, seed_desc, &min, &prog);
}

/// The headline property: every generated program computes the same
/// outputs under value semantics, unoptimized memory semantics, fully
/// optimized memory semantics, checked mode (silent sanitizer), and a
/// work-stealing thread sweep — and the optimizer never adds copies.
#[test]
fn prop_three_way_equivalence() {
    let n = scale(150, 1000);
    let mut meta = Rng64::new(0xD1FF);
    let mut checked = Session::new();
    let mut par = Session::new();
    for i in 0..n {
        let seed = meta.next_u64();
        let len = 3 + (meta.next_u64() % 14) as usize;
        let ops = random_ops(seed, len);
        if let Err(e) = diff_trace(&ops, &mut checked, &mut par) {
            shrink_and_fail(
                &e,
                &format!("meta 0xD1FF iteration {i}: random_ops({seed:#x}, {len})"),
                &ops,
            );
        }
    }
}

/// Health check: across a seeded sweep the optimizer actually earns its
/// keep — a nontrivial share of programs see copies elided, at least
/// one merges blocks, and a nontrivial share exercises the
/// runtime-indexed (gather/scatter) rejection paths. Guards against the
/// generator drifting into shapes where every pass silently rejects.
#[test]
fn seeded_sweep_exercises_the_optimizer() {
    let n = scale(120, 600);
    let mut checked = Session::new();
    let mut par = Session::new();
    let mut improved = 0usize;
    let mut merged = 0usize;
    let mut runtime_indexed = 0usize;
    for k in 0..n as u64 {
        let seed = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xA5A5);
        let ops = random_ops(seed, 10);
        match diff_trace(&ops, &mut checked, &mut par) {
            Ok(Some(r)) => {
                if r.opt_copied < r.unopt_copied {
                    improved += 1;
                }
                if merged_in_report(&r) {
                    merged += 1;
                }
                let mut cov = Coverage::new();
                cov.observe_report(&r.opt_report);
                if cov
                    .reject_reasons
                    .contains(&RejectReason::RuntimeIndexedWrite)
                    || cov.merge_rejects.contains(&MergeReject::RuntimeIndexed)
                    || cov.par_rejects.contains(&ParReject::RuntimeIndexedWrite)
                {
                    runtime_indexed += 1;
                }
            }
            Ok(None) => {}
            Err(e) => shrink_and_fail(&e, &format!("sweep seed {seed:#x}, len 10"), &ops),
        }
    }
    assert!(
        improved > n / 10,
        "only {improved}/{n} programs saw copies elided"
    );
    assert!(merged > 0, "no program in the sweep merged blocks");
    assert!(
        runtime_indexed > n / 20,
        "only {runtime_indexed}/{n} programs exercised runtime-indexed rejection paths"
    );
}

/// The hoist stage reaches its fixed point in one run: hoisting its own
/// output again moves nothing, for every workload under both option sets
/// and for seeded fuzz programs.
#[test]
fn hoisting_the_hoisted_program_moves_nothing() {
    let hoisted_again = |title: &str, prog: &arraymem_ir::Program, opts: &Options| {
        let mut moved = None;
        compile_observed(prog, opts, &mut |stage, p| {
            if stage == "hoist" {
                moved = Some(hoist_allocations(&mut p.clone()));
            }
        })
        .expect("compile");
        assert_eq!(moved, Some(0), "{title}: a second hoist moved statements");
    };
    for benchmark in KNOWN_BENCHMARKS {
        for case in table_cases(benchmark, true).expect("known benchmark") {
            for opts in [Options::default(), Options::optimized()] {
                let title = format!("{benchmark}/{}", case.dataset);
                hoisted_again(&title, &case.program, &opts.with_env(case.env.clone()));
            }
        }
    }
    for k in 0..scale(60, 300) as u64 {
        let seed = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x4015);
        let Some(prog) = build_program(&random_ops(seed, 12)) else {
            continue;
        };
        for opts in [Options::default(), Options::optimized()] {
            hoisted_again(&format!("random_ops({seed:#x}, 12)"), &prog, &opts);
        }
    }
}

/// Toggling the merge pass must never change outputs; `run_all_modes`
/// compares the merge-on optimized build against the merge-off default
/// build on every leg, so this sweep just has to hit programs where the
/// toggle is live.
#[test]
fn merge_toggle_equivalence() {
    let n = scale(80, 400);
    let mut checked = Session::new();
    let mut par = Session::new();
    let mut merged_programs = 0usize;
    for k in 0..n as u64 {
        let ops = random_ops(5000 + k, 12);
        match diff_trace(&ops, &mut checked, &mut par) {
            Ok(Some(r)) => {
                if merged_in_report(&r) {
                    merged_programs += 1;
                }
            }
            Ok(None) => {}
            Err(e) => shrink_and_fail(&e, &format!("merge sweep seed {}", 5000 + k), &ops),
        }
    }
    assert!(
        merged_programs > 0,
        "merge toggle was never live across {n} programs"
    );
}

/// Replay the whole committed corpus — seeds and regressions — through
/// every semantics, 1 and 8 workers, Memory and Checked. This is the
/// tier scripts/verify.sh runs.
#[test]
fn corpus_replays_clean_in_every_mode() {
    let seeds = corpus::load_dir(&corpus::seeds_dir()).expect("load seeds");
    let regressions = corpus::load_dir(&corpus::regressions_dir()).expect("load regressions");
    assert!(
        seeds.len() >= 8,
        "seed corpus too small ({} entries) — regenerate with regen_corpus",
        seeds.len()
    );
    assert!(
        regressions.len() >= 3,
        "regression corpus too small ({} entries)",
        regressions.len()
    );
    let mut checked = Session::new();
    let mut par = Session::new();
    let mut carried = 0usize;
    for entry in seeds.iter().chain(regressions.iter()) {
        let prog = build_program(&entry.ops)
            .unwrap_or_else(|| panic!("corpus entry {} builds no program", entry.name));
        match run_all_modes(&prog, &mut checked, &mut par) {
            Ok(r) => {
                if r.opt_report
                    .remarks
                    .iter()
                    .any(|rm| matches!(rm.kind, RemarkKind::CarriedRelease))
                {
                    carried += 1;
                }
            }
            Err(e) => fail_with_repro(
                &e,
                &format!("corpus entry {}", entry.name),
                &entry.ops,
                &prog,
            ),
        }
    }
    assert!(
        carried > 0,
        "no corpus entry exercises the merge pass's carried-release scheduling"
    );
}

/// Which structured rejection a regression entry was minimized for,
/// parsed from its `note: ... expects=<Variant> ...` marker.
fn expected_variant(entry: &CorpusEntry) -> Option<&str> {
    let idx = entry.note.find("expects=")?;
    let rest = &entry.note[idx + "expects=".len()..];
    Some(rest.split_whitespace().next().unwrap_or(""))
}

fn coverage_constructs(cov: &Coverage, variant: &str) -> bool {
    cov.reject_reasons
        .iter()
        .any(|r| format!("{r:?}") == variant)
        || cov
            .merge_rejects
            .iter()
            .any(|r| format!("{r:?}") == variant)
        || cov.par_rejects.iter().any(|r| format!("{r:?}") == variant)
}

/// Every committed regression keeps firing the structured rejection it
/// was distilled for — the remark proves the pass still *rejects* the
/// shape rather than silently skipping (or unsoundly accepting) it.
/// The historical and the new runtime-indexed bug classes must all be
/// represented.
#[test]
fn corpus_regressions_keep_firing_their_remarks() {
    let regressions = corpus::load_dir(&corpus::regressions_dir()).expect("load regressions");
    assert!(!regressions.is_empty(), "no regression entries");
    let mut seen = Vec::new();
    for entry in &regressions {
        let variant = expected_variant(entry).unwrap_or_else(|| {
            panic!(
                "regression {} carries no `expects=<Variant>` note: {:?}",
                entry.name, entry.note
            )
        });
        let prog = build_program(&entry.ops).expect("regression builds");
        let compiled = compile(&prog, &Options::optimized()).expect("compile");
        let mut cov = Coverage::new();
        cov.observe_report(&compiled.compile_report);
        assert!(
            coverage_constructs(&cov, variant),
            "regression {} no longer constructs {variant}; remarks: {:#?}",
            entry.name,
            compiled.compile_report.remarks
        );
        seen.push(variant.to_string());
    }
    for class in [
        "DestinationVacated",
        "AliasingConcatArg",
        "RuntimeIndexedWrite",
    ] {
        assert!(
            seen.iter().any(|v| v == class),
            "no regression entry covers historical bug class {class} (have {seen:?})"
        );
    }
}

/// Observe one trace's compile report and run stats into a coverage map.
fn observe_trace(
    cov: &mut Coverage,
    ops: &[GenOp],
    checked: &mut Session,
    par: &mut Session,
) -> bool {
    match diff_trace(ops, checked, par) {
        Ok(Some(r)) => {
            let mut grew = cov.observe_report(&r.opt_report);
            grew |= cov.observe_stats(&r.opt_stats);
            grew |= cov.observe_stats(&r.checked_stats);
            grew
        }
        Ok(None) => false,
        Err(e) => shrink_and_fail(&e, "coverage trace", ops),
    }
}

/// The corpus-growth demonstration: starting from the single trivial
/// trace the campaign began with, the (remark-kind × pass) bitmap plus
/// mechanism counters admit a stream of random traces into the corpus —
/// strictly growing coverage well beyond the initial seed. This is the
/// same loop `regen_corpus` used to produce `corpus/seeds/`.
#[test]
fn coverage_signal_grows_the_corpus_beyond_its_first_seed() {
    let mut checked = Session::new();
    let mut par = Session::new();
    let mut cov = Coverage::new();
    let first = random_ops(0xBEEF, 2);
    observe_trace(&mut cov, &first, &mut checked, &mut par);
    let initial = cov.popcount();
    assert!(initial > 0, "even the trivial trace lights some bits");

    let mut admitted: Vec<CorpusEntry> = Vec::new();
    let mut meta = Rng64::new(0xC0FFEE);
    for k in 0..scale(150, 500) {
        let seed = meta.next_u64();
        let len = 3 + (meta.next_u64() % 14) as usize;
        let ops = random_ops(seed, len);
        if observe_trace(&mut cov, &ops, &mut checked, &mut par) {
            admitted.push(CorpusEntry {
                name: format!("grown-{k:03}"),
                note: format!("admitted by coverage growth; random_ops({seed:#x}, {len})"),
                ops,
            });
        }
    }
    assert!(
        cov.popcount() > initial,
        "random traces never grew coverage past the first seed ({initial} bits)"
    );
    assert!(
        admitted.len() >= 3,
        "only {} traces were admitted by the coverage signal",
        admitted.len()
    );

    // Round-trip the grown corpus through the on-disk format.
    let dir = std::env::temp_dir().join(format!("arraymem-fuzz-grown-{}", std::process::id()));
    for entry in &admitted {
        corpus::save(&dir, entry).expect("save grown entry");
    }
    let reloaded = corpus::load_dir(&dir).expect("reload grown corpus");
    assert_eq!(reloaded.len(), admitted.len());
    assert_eq!(reloaded[0].ops, admitted[0].ops);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Predicate for the minimizer demo: under the `Sabotage::Merge`
/// mutation hook, rejected merges are taken anyway and the compiled
/// program's outputs corrupt. The risky replay runs **out of process**:
/// an unsafely shared block can put a copy's source and destination
/// views on overlapping bytes, which trips the standard library's
/// non-unwinding overlap check and aborts the whole process — abnormal
/// exit IS a divergence verdict. (This is exactly why production
/// fuzzers isolate each execution.) A cheap in-process pre-filter skips
/// the subprocess unless the hook actually flipped a rejected merge.
fn injected_merge_diverges(ops: &[GenOp]) -> bool {
    let Some(prog) = build_program(ops) else {
        return false;
    };
    let kernels = KernelRegistry::new();
    if let Err(e) = run_program(&prog, &[], &kernels, Mode::Pure, 1) {
        assert!(!e.contains(" panicked: "), "the oracle crashed: {e}");
        return false;
    }
    let Ok(compiled) = compile_sabotaged(&prog, &Options::optimized(), Sabotage::Merge) else {
        return false;
    };
    let hook_was_live = compiled.compile_report.remarks.iter().any(|rm| {
        matches!(rm.kind, RemarkKind::BlocksMerged)
            && rm.message.contains("forced past interference")
    });
    if !hook_was_live {
        return false;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--nocapture",
            "--exact",
            "replay_forced_merge_child",
        ])
        .env(
            "ARRAYMEM_FORCED_MERGE_TRACE",
            arraymem_fuzz::diff::ops_text(ops),
        )
        .output()
        .expect("spawn forced-merge replay child");
    !out.status.success() || String::from_utf8_lossy(&out.stdout).contains("FORCED-MERGE-DIVERGED")
}

/// Child entry point for [`injected_merge_diverges`]: replays the trace
/// from the environment under the forced-merge mutation and prints a
/// verdict. Runs in its own process so memory corruption cannot take
/// the parent test run down with it.
#[test]
#[ignore = "child entry point spawned by the forced-merge oracle, not a test"]
fn replay_forced_merge_child() {
    let Ok(text) = std::env::var("ARRAYMEM_FORCED_MERGE_TRACE") else {
        return;
    };
    let entry = corpus::parse_entry("child", &text).expect("parent sends a valid trace");
    let Some(prog) = build_program(&entry.ops) else {
        println!("FORCED-MERGE-CLEAN");
        return;
    };
    let kernels = KernelRegistry::new();
    let Ok((pure_out, _)) = run_program(&prog, &[], &kernels, Mode::Pure, 1) else {
        println!("FORCED-MERGE-CLEAN");
        return;
    };
    let compiled = compile_sabotaged(&prog, &Options::optimized(), Sabotage::Merge)
        .expect("parent pre-filtered the compile");
    let run = |session: &mut Session| {
        let h = session.prepare_full(
            &compiled.program,
            &kernels,
            &[],
            &compiled.report.merges,
            &compiled.report.par_safety,
        )?;
        session.run_plan(h, &[], &kernels, Mode::Memory, 1)
    };
    match run(&mut Session::new()) {
        Ok((out, _)) if out == pure_out => println!("FORCED-MERGE-CLEAN"),
        _ => println!("FORCED-MERGE-DIVERGED"),
    }
}

/// End-to-end minimizer demonstration on a *real* miscompile: force the
/// merge pass to take every rejected candidate, find a trace whose
/// outputs corrupt (or whose process aborts), and shrink it to a
/// 1-minimal repro — exactly what a genuine fuzz failure goes through
/// before being committed under `corpus/regressions/`.
#[test]
fn minimizer_shrinks_an_injected_miscompile_to_one_minimal() {
    let mut found = None;
    let mut meta = Rng64::new(0x5EED);
    for _ in 0..scale(400, 2000) {
        let seed = meta.next_u64();
        let ops = random_ops(seed, 12);
        if injected_merge_diverges(&ops) {
            found = Some((seed, ops));
            break;
        }
    }
    let (seed, ops) = found.expect("forcing unsafe merges should corrupt some trace");
    let min = minimize(&ops, injected_merge_diverges);
    assert!(
        min.len() < ops.len(),
        "minimizer removed nothing from seed {seed:#x}"
    );
    assert!(
        injected_merge_diverges(&min),
        "minimized trace no longer fails"
    );
    // 1-minimal: removing any single op loses the failure.
    for i in 0..min.len() {
        let mut probe = min.clone();
        probe.remove(i);
        assert!(
            probe.is_empty() || !injected_merge_diverges(&probe),
            "trace is not 1-minimal: op {i} of {} is removable",
            min.len()
        );
    }
}

/// Taxonomy completeness: every closed reject variant — all of
/// `RejectReason::ALL`, `MergeReject::ALL`, `ParReject::ALL` — is
/// constructed by at least one corpus entry, one benchmark workload, or
/// one of the dedicated trigger programs below. A variant nothing can
/// construct is dead taxonomy and fails here by name.
#[test]
fn every_reject_variant_is_constructed_somewhere() {
    let mut cov = Coverage::new();

    // 1. The committed corpus.
    for dir in [corpus::seeds_dir(), corpus::regressions_dir()] {
        for entry in corpus::load_dir(&dir).expect("load corpus") {
            let prog = build_program(&entry.ops).expect("corpus entry builds");
            let compiled = compile(&prog, &Options::optimized()).expect("compile");
            cov.observe_report(&compiled.compile_report);
        }
    }

    // 2. Every benchmark workload (quick datasets), fully optimized.
    for benchmark in KNOWN_BENCHMARKS {
        for case in table_cases(benchmark, true).expect("known benchmark") {
            cov.observe_report(&case.compile(true).compile_report);
        }
    }

    // 3. Dedicated trigger programs for variants the generated shapes
    //    cannot reach, each compiled with the options that expose it.
    for (prog, opts) in trigger_programs() {
        let compiled = compile(&prog, &opts).expect("trigger compiles");
        cov.observe_report(&compiled.compile_report);
    }

    // 4. Workload ablations: disabling one ingredient defeats candidates
    //    with a specific structured reason.
    {
        use arraymem_workloads as w;
        // Without hoisting, concat parts' destinations are not allocated
        // at their fresh definitions (property 2).
        let case = w::hotspot::case("r", 16, 2, 2);
        let compiled = compile(
            &case.program,
            &Options {
                hoist: false,
                ..Options::optimized().with_env(case.env.clone())
            },
        )
        .expect("hotspot compiles without hoisting");
        cov.observe_report(&compiled.compile_report);
        // Without in-place mapnest marking, proven-safe row kernels keep
        // their private buffers (ParReject::PrivateBuffer).
        let case = w::nw::case("r", 64, 16, 2);
        let compiled = compile(
            &case.program,
            &Options {
                mapnest_in_place: false,
                ..Options::optimized().with_env(case.env.clone())
            },
        )
        .expect("nw compiles without in-place maps");
        cov.observe_report(&compiled.compile_report);
    }

    // 5. Direct-pass constructions for analysis fallbacks the full
    //    pipeline cannot produce (same sabotage idiom as checked_mode's
    //    par-safety cross-check test).
    direct_pass_constructions(&mut cov);

    let missing_reject: Vec<_> = RejectReason::ALL
        .iter()
        .filter(|r| !cov.reject_reasons.contains(r))
        .collect();
    let missing_merge: Vec<_> = MergeReject::ALL
        .iter()
        .filter(|m| !cov.merge_rejects.contains(m))
        .collect();
    let missing_par: Vec<_> = ParReject::ALL
        .iter()
        .filter(|p| !cov.par_rejects.contains(p))
        .collect();
    assert!(
        missing_reject.is_empty() && missing_merge.is_empty() && missing_par.is_empty(),
        "unconstructed reject variants:\n  RejectReason: {missing_reject:?}\n  \
         MergeReject: {missing_merge:?}\n  ParReject: {missing_par:?}"
    );
}

/// Hand-built programs covering reject variants that neither the fuzz
/// generator nor the benchmark workloads reach. Each block is commented
/// with the variant it exists for.
fn trigger_programs() -> Vec<(arraymem_ir::Program, Options)> {
    use arraymem_ir::{BinOp, Builder, ElemType, ScalarExp, SliceSpec};
    use arraymem_lmad::TripletSlice;
    use arraymem_symbolic::Poly;
    let c = Poly::from;
    let full_range = || SliceSpec::Triplet(vec![TripletSlice::range(0i64, 4i64, 1i64)]);
    let mut progs = Vec::new();

    // RejectReason::DestinationVacated — the stale-rebase bug class: an
    // inner update whose destination block is itself circuited away.
    {
        let b = Builder::new("trigger_vacated");
        let mut body = b.block();
        let as_ = body.replicate("as", vec![c(16)], ScalarExp::f32(1.0));
        let es = body.replicate("es", vec![c(4)], ScalarExp::f32(3.0));
        let bs = body.replicate("bs", vec![c(8)], ScalarExp::f32(2.0));
        let bs2 = body.update("bs2", bs, full_range(), es);
        let as2 = body.update(
            "as2",
            as_,
            SliceSpec::Triplet(vec![TripletSlice::range(8i64, 8i64, 1i64)]),
            bs2,
        );
        let blk = body.finish(vec![as2]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // RejectReason::AliasingConcatArg — `concat bs bs` (footnote 17).
    {
        let b = Builder::new("trigger_alias_concat");
        let mut body = b.block();
        let bs = body.replicate("bs", vec![c(4)], ScalarExp::f32(2.0));
        let cs = body.concat("cs", vec![bs, bs]);
        let blk = body.finish(vec![cs]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // RejectReason::SliceNotExpressible — a point update at a
    // data-dependent row index: no static transform describes the slice.
    {
        let b = Builder::new("trigger_point_slice");
        let mut body = b.block();
        let idxs = body.iota("idxs", 4i64);
        let a = body.replicate("a", vec![c(4), c(4)], ScalarExp::f32(0.0));
        let row = body.replicate("row", vec![c(4)], ScalarExp::f32(2.0));
        let a2 = body.update(
            "a2",
            a,
            SliceSpec::Point(vec![ScalarExp::Index(idxs, vec![ScalarExp::i64(0)])]),
            row,
        );
        let blk = body.finish(vec![a2]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // RejectReason::IxfnNotInScope — the circuit offset is a scalar
    // defined *after* the source's fresh definition, with a
    // data-dependent (non-polynomial) definition, so the rebased index
    // function cannot be translated into scope.
    {
        let b = Builder::new("trigger_ixfn_scope");
        let mut body = b.block();
        let idxs = body.iota("idxs", 8i64);
        let a = body.replicate("a", vec![c(16)], ScalarExp::f32(1.0));
        let s = body.replicate("s", vec![c(4)], ScalarExp::f32(2.0));
        let k = body.scalar(
            "k",
            ElemType::I64,
            ScalarExp::Index(idxs, vec![ScalarExp::i64(0)]),
        );
        let a2 = body.update(
            "a2",
            a,
            SliceSpec::Triplet(vec![TripletSlice::range(Poly::var(k), c(4), c(1))]),
            s,
        );
        let blk = body.finish(vec![a2]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // RejectReason::OverlapTestFailed — the destination memory is read
    // (by `r`) between the source's fresh definition and the update, and
    // the read region overlaps the region the circuit would write early.
    {
        let b = Builder::new("trigger_overlap");
        let mut body = b.block();
        let a = body.replicate("a", vec![c(16)], ScalarExp::f32(1.0));
        let s = body.replicate("s", vec![c(4)], ScalarExp::f32(2.0));
        let r = body.map_lambda("r", c(16), vec![a], ElemType::F32, |lb, ps| {
            vec![lb.scalar(
                "d",
                ElemType::F32,
                ScalarExp::bin(BinOp::Mul, ScalarExp::var(ps[0]), ScalarExp::f32(2.0)),
            )]
        });
        let a2 = body.update("a2", a, full_range(), s);
        let blk = body.finish(vec![a2, r]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // RejectReason::MergeParamOrder — Fig. 5b condition 3: the loop's
    // merge parameter is read again after the web's fresh definition.
    {
        let b = Builder::new("trigger_param_order");
        let mut body = b.block();
        let a = body.replicate("a", vec![c(16)], ScalarExp::f32(1.0));
        let init_f = body.replicate("init_f", vec![c(4)], ScalarExp::f32(0.0));
        let init_g = body.replicate("init_g", vec![c(4)], ScalarExp::f32(5.0));
        let p_ = body.loop_param("p", init_f);
        let q_ = body.loop_param("q", init_g);
        let i = body.loop_index("i");
        let mut lb = b.block();
        let fb = lb.map_lambda("fb", c(4), vec![p_], ElemType::F32, |bb, ps| {
            vec![bb.scalar(
                "x1",
                ElemType::F32,
                ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::f32(1.0)),
            )]
        });
        let gb = lb.map_lambda("gb", c(4), vec![p_], ElemType::F32, |bb, ps| {
            vec![bb.scalar(
                "x2",
                ElemType::F32,
                ScalarExp::bin(BinOp::Mul, ScalarExp::var(ps[0]), ScalarExp::f32(2.0)),
            )]
        });
        let lblk = lb.finish(vec![fb, gb]);
        let tys = (b.ty(init_f), b.ty(init_g));
        let outs = body.loop_(
            vec!["f", "g"],
            vec![(p_, tys.0), (q_, tys.1)],
            vec![init_f, init_g],
            i,
            2i64,
            lblk,
        );
        let a2 = body.update("a2", a, full_range(), outs[0]);
        let blk = body.finish(vec![a2, outs[1]]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // RejectReason::FreshDefNotFound — the circuit source is a loop
    // whose body result is defined outside the body: the backward walk
    // never reaches a fresh definition.
    {
        let b = Builder::new("trigger_no_fresh");
        let mut body = b.block();
        let a = body.replicate("a", vec![c(16)], ScalarExp::f32(1.0));
        let outer = body.replicate("outer", vec![c(4)], ScalarExp::f32(3.0));
        let init = body.replicate("init", vec![c(4)], ScalarExp::f32(0.0));
        let p_ = body.loop_param("p", init);
        let i = body.loop_index("i");
        let lb = b.block();
        let lblk = lb.finish(vec![outer]);
        let ty = b.ty(init);
        let outs = body.loop_(vec!["f"], vec![(p_, ty)], vec![init], i, 2i64, lblk);
        let a2 = body.update("a2", a, full_range(), outs[0]);
        let blk = body.finish(vec![a2]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    // MergeReject::ElemMismatch — the only lifetime-compatible hosts for
    // the f32 block hold i64 elements.
    {
        let b = Builder::new("trigger_elem_mismatch");
        let mut body = b.block();
        let a = body.replicate_typed("a", ElemType::I64, vec![c(8)], ScalarExp::i64(7));
        let _t = body.map_lambda("t", c(8), vec![a], ElemType::I64, |bb, ps| {
            vec![bb.scalar(
                "y1",
                ElemType::I64,
                ScalarExp::bin(BinOp::Mul, ScalarExp::var(ps[0]), ScalarExp::i64(2)),
            )]
        });
        let bf = body.replicate("bf", vec![c(8)], ScalarExp::f32(1.0));
        let u = body.map_lambda("u", c(8), vec![bf], ElemType::F32, |bb, ps| {
            vec![bb.scalar(
                "y2",
                ElemType::F32,
                ScalarExp::bin(BinOp::Add, ScalarExp::var(ps[0]), ScalarExp::f32(1.0)),
            )]
        });
        let blk = body.finish(vec![u]);
        progs.push((b.finish(blk), Options::optimized()));
    }

    progs
}

/// Constructions that go through a pass entry point directly — the same
/// idiom checked_mode.rs uses for its par-safety cross-check: compile an
/// honest program, surgically rewrite its memory annotations into the
/// shape the fallback guards against, and re-run the analysis.
fn direct_pass_constructions(cov: &mut Coverage) {
    use arraymem_core::merge::merge_blocks;
    use arraymem_core::par_safety::par_safety;
    use arraymem_ir::{Builder, ElemType, Exp, MemBinding, ScalarExp};
    use arraymem_lmad::{IndexFn, Lmad};
    use arraymem_symbolic::{Env, Poly};

    let build = || {
        let bld = Builder::new("trigger_par");
        let mut b = bld.block();
        let src = b.replicate_typed(
            "src",
            ElemType::I64,
            vec![Poly::from(64i64)],
            ScalarExp::i64(1),
        );
        let m = b.map_kernel(
            "m",
            "bump",
            Poly::from(64i64),
            vec![],
            ElemType::I64,
            vec![src],
            vec![],
        );
        bld.finish(b.finish(vec![m]))
    };
    let env = Env::default();
    let harvest_par = |cov: &mut Coverage, prog: &arraymem_ir::Program| {
        for r in par_safety(prog, &env) {
            if let Some(why) = r.reject {
                cov.par_rejects.insert(why);
            }
        }
    };

    // ParReject::NoMemBinding — the analysis on a source program, before
    // memory introduction: the map result has no binding to derive a
    // write LMAD from.
    let prog = build();
    harvest_par(cov, &prog);

    // ParReject::RowNotExtractable — a rank-0 result index function has
    // no outer dimension to fix, so no per-iteration row exists.
    let mut compiled = compile(&prog, &Options::optimized()).expect("compile");
    for stm in &mut compiled.program.body.stms {
        if let Exp::Map(_) = stm.exp {
            let mb = stm.pat[0].mem.as_mut().expect("compiled map has memory");
            mb.ixfn = IndexFn {
                lmads: vec![Lmad::new(Poly::from(0i64), vec![])],
            };
        }
    }
    harvest_par(cov, &compiled.program);

    // ParReject::InputInterference — rebind the kernel input into the
    // result's block shifted by one cell: iteration i reads the cell
    // iteration i+1 writes, and no disjointness is provable.
    let mut compiled = compile(&prog, &Options::optimized()).expect("compile");
    let out_mb = compiled
        .program
        .body
        .stms
        .iter()
        .find_map(|s| {
            matches!(s.exp, Exp::Map(_)).then(|| s.pat[0].mem.clone().expect("map has memory"))
        })
        .expect("program has a map");
    for stm in &mut compiled.program.body.stms {
        if matches!(stm.exp, Exp::Replicate { .. }) {
            let shifted = Lmad::new(
                out_mb.ixfn.lmads[0].offset.clone() + Poly::from(1i64),
                out_mb.ixfn.lmads[0].dims.clone(),
            );
            stm.pat[0].mem = Some(MemBinding {
                block: out_mb.block,
                ixfn: IndexFn {
                    lmads: vec![shifted],
                },
            });
        }
    }
    harvest_par(cov, &compiled.program);

    // RejectReason::UnsupportedDefinition — a web member defined by a
    // non-array expression. No source program produces this (scratch is
    // a fresh creator; raw allocs only exist after memory introduction),
    // so rewrite the circuit source's definition into a scalar and rerun
    // the pass.
    {
        use arraymem_core::short_circuit::short_circuit_with;
        let bld = Builder::new("trigger_unsupported");
        let mut b = bld.block();
        let a = b.replicate("a", vec![Poly::from(16i64)], ScalarExp::f32(1.0));
        let s = b.replicate("s", vec![Poly::from(4i64)], ScalarExp::f32(2.0));
        let a2 = b.update(
            "a2",
            a,
            arraymem_ir::SliceSpec::Triplet(vec![arraymem_lmad::TripletSlice::range(
                0i64, 4i64, 1i64,
            )]),
            s,
        );
        let prog = bld.finish(b.finish(vec![a2]));
        let mut compiled = compile(&prog, &Options::default()).expect("compile");
        for stm in &mut compiled.program.body.stms {
            if stm.pat[0].var == s {
                stm.exp = Exp::Scalar(ScalarExp::f32(2.0));
            }
        }
        let report = short_circuit_with(&mut compiled.program, &env, true);
        for cand in &report.candidates {
            if let Some(why) = cand.rejection {
                cov.reject_reasons.insert(why);
            }
        }
    }

    // MergeReject::Escapes — a block variable handed to the caller as a
    // raw program result cannot be renamed into a host.
    let mut compiled = compile(&prog, &Options::optimized()).expect("compile");
    let block_var = compiled
        .program
        .body
        .stms
        .iter()
        .find_map(|s| matches!(s.exp, Exp::Alloc { .. }).then(|| s.pat[0].var))
        .expect("compiled program has an alloc");
    compiled.program.body.result.push(block_var);
    let report = merge_blocks(&mut compiled.program, &env);
    for (_, why) in &report.rejected {
        cov.merge_rejects.insert(*why);
    }
}

/// Regenerate the committed corpus. Run explicitly:
/// `cargo test -p arraymem-bench --test differential_fuzz -- --ignored regen_corpus`
///
/// Seeds: greedy coverage-growth admission over a deterministic stream
/// of random traces. Regressions: for each target bug class, find a
/// trace whose optimized compile constructs the class's structured
/// rejection, then minimize while preserving it.
#[test]
#[ignore]
fn regen_corpus() {
    let mut checked = Session::new();
    let mut par = Session::new();

    // --- seeds/ -----------------------------------------------------
    // Three independent growth streams (random restarts over different
    // trace-length regimes) so the committed seeds are coverage-diverse
    // rather than just the first stream's greedy frontier.
    let streams: [(u64, u64, u64); 3] = [
        (0xC0FFEE, 3, 14), // mixed lengths — the main stream
        (0xFEED01, 2, 4),  // short traces — minimal shapes per feature
        (0xFEED02, 12, 5), // long traces — dense pass interaction
    ];
    let mut admitted: Vec<CorpusEntry> = Vec::new();
    for (si, (meta_seed, base, span)) in streams.iter().enumerate() {
        let mut cov = Coverage::new();
        let mut meta = Rng64::new(*meta_seed);
        for _ in 0..600 {
            let seed = meta.next_u64();
            let len = (base + meta.next_u64() % span) as usize;
            let ops = random_ops(seed, len);
            if observe_trace(&mut cov, &ops, &mut checked, &mut par) {
                let idx = admitted.len();
                admitted.push(CorpusEntry {
                    name: format!("seed-{idx:03}"),
                    note: format!(
                        "stream {si} coverage-admitted trace; random_ops({seed:#x}, {len}); \
                         stream popcount after admission: {}",
                        cov.popcount()
                    ),
                    ops,
                });
            }
        }
        println!(
            "stream {si}: corpus now {} entries, stream popcount {}",
            admitted.len(),
            cov.popcount()
        );
    }
    let dir = corpus::seeds_dir();
    let _ = std::fs::remove_dir_all(&dir);
    for entry in &admitted {
        corpus::save(&dir, entry).expect("save seed");
    }
    println!("wrote {} seeds", admitted.len());

    // --- regressions/ -----------------------------------------------
    let classes: [(&str, &str); 5] = [
        (
            "DestinationVacated",
            "stale rebase: candidate destination vacated by another web's circuit",
        ),
        (
            "AliasingConcatArg",
            "aliasing concat args: one alias web behind two concat arguments",
        ),
        (
            "RuntimeIndexedWrite",
            "scatter write: short-circuit must reject the runtime-indexed footprint",
        ),
        (
            "RuntimeIndexed",
            "runtime-indexed block: merge pass has no affine footprint to prove disjointness",
        ),
        (
            "NotLastUse",
            "source used past the circuit point: property 1 rejection",
        ),
    ];
    let constructs = |ops: &[GenOp], variant: &str| -> bool {
        let Some(prog) = build_program(ops) else {
            return false;
        };
        let Ok(compiled) = compile(&prog, &Options::optimized()) else {
            return false;
        };
        let mut c = Coverage::new();
        c.observe_report(&compiled.compile_report);
        coverage_constructs(&c, variant)
    };
    let rdir = corpus::regressions_dir();
    let _ = std::fs::remove_dir_all(&rdir);
    for (variant, desc) in classes {
        let mut found = None;
        let mut search = Rng64::new(0x7A6E_5D4C);
        'search: for len in [8usize, 12, 16, 20] {
            for _ in 0..4000 {
                let seed = search.next_u64();
                let ops = random_ops(seed, len);
                if constructs(&ops, variant) {
                    found = Some(ops);
                    break 'search;
                }
            }
        }
        let Some(ops) = found else {
            println!("NO TRACE FOUND for {variant} — needs a handwritten entry");
            continue;
        };
        let min = minimize(&ops, |c| constructs(c, variant));
        assert!(constructs(&min, variant));
        let entry = CorpusEntry {
            name: format!("reject-{}", variant.to_lowercase()),
            note: format!("expects={variant} — {desc}; minimized to {} ops", min.len()),
            ops: min,
        };
        corpus::save(&rdir, &entry).expect("save regression");
        println!("wrote regression {} ({} ops)", entry.name, entry.ops.len());
    }
}
