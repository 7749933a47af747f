//! Plan-cache correctness: a cache hit must replay the *same* plan.
//!
//! For every workload, a cold `prepare` + run and a warm (cache-hit) run
//! in the same session must produce bit-identical outputs — in plain
//! memory mode and under the checked-mode sanitizer. A golden snapshot of
//! the lowered NW instruction stream pins the plan format itself, so an
//! accidental lowering change shows up as a readable diff instead of a
//! silent perf or semantics shift. Re-bless with `ARRAYMEM_BLESS=1`.

use arraymem_bench::tables::{table_cases, KNOWN_BENCHMARKS};
use arraymem_core::{CircuitCheck, Compiled};
use arraymem_exec::{KernelRegistry, Mode, PlanHandle, Session};
use arraymem_workloads as w;

/// Prepare a compile the way production does: the program together with
/// the compile's own merge and par-safety records.
fn prepare(
    session: &mut Session,
    compiled: &Compiled,
    kernels: &KernelRegistry,
    checks: &[CircuitCheck],
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

/// Cold-vs-warm equivalence for one mode. The *same* session serves both
/// runs, so the warm run also recycles the cold run's released blocks —
/// the harshest setting for "the cached plan behaves identically".
fn fresh_vs_cached(mode: Mode) {
    for benchmark in KNOWN_BENCHMARKS {
        let case = &table_cases(benchmark, true).expect("known benchmark")[0];
        let compiled = case.compile(true);
        let checks: Vec<_> = compiled.report.checks().cloned().collect();
        let threads = if matches!(mode, Mode::Checked) { 1 } else { 2 };
        let mut session = Session::new();
        let run = |s: &mut Session| {
            let h = prepare(s, &compiled, &case.kernels, &checks);
            s.run_plan(h, &case.inputs, &case.kernels, mode, threads)
                .expect("run")
        };
        let (cold_out, cold_stats) = run(&mut session);
        let (warm_out, warm_stats) = run(&mut session);
        assert!(
            !cold_stats.plan_cache_hit,
            "{benchmark}: first prepare must lower"
        );
        assert!(
            warm_stats.plan_cache_hit,
            "{benchmark}: second prepare must hit the cache"
        );
        assert_eq!(
            cold_out, warm_out,
            "{benchmark}: cache-hit run diverged from the cold run ({mode:?})"
        );
        let plan = session.plan_stats();
        assert_eq!(
            (plan.builds, plan.cache_hits),
            (1, 1),
            "{benchmark}: exactly one lowering, one hit"
        );
        if matches!(mode, Mode::Checked) {
            assert!(
                cold_stats.diagnostics.is_empty() && warm_stats.diagnostics.is_empty(),
                "{benchmark}: sanitizer findings on a legal program"
            );
        }
    }
}

#[test]
fn cached_runs_are_bit_identical_in_memory_mode() {
    fresh_vs_cached(Mode::Memory);
}

#[test]
fn cached_runs_are_bit_identical_in_checked_mode() {
    fresh_vs_cached(Mode::Checked);
}

/// Distinct programs get distinct cache entries; re-preparing either one
/// afterwards still hits.
#[test]
fn distinct_programs_do_not_collide() {
    let a = w::nw::case("a", 4, 4, 1);
    let b = w::hotspot::case("b", 16, 2, 1);
    let ca = a.compile(true);
    let cb = b.compile(true);
    let mut session = Session::new();
    let ha = prepare(&mut session, &ca, &a.kernels, &[]);
    let hb = prepare(&mut session, &cb, &b.kernels, &[]);
    assert_ne!(ha, hb, "different programs must not share a plan");
    assert_eq!(prepare(&mut session, &ca, &a.kernels, &[]), ha);
    assert_eq!(prepare(&mut session, &cb, &b.kernels, &[]), hb);
    let stats = session.plan_stats();
    assert_eq!((stats.builds, stats.cache_hits), (2, 2));
}

/// A run reports the lowering of the plan it ran, not of whichever plan
/// the session prepared last, and each lowering is reported by one run:
/// summed over the runs (as `Stats::merge` sums them), the build times
/// are the cache's own total.
#[test]
fn a_run_reports_its_own_plans_lowering_once() {
    let a = w::nw::case("a", 4, 4, 1);
    let b = w::hotspot::case("b", 16, 2, 1);
    let ca = a.compile(true);
    let cb = b.compile(true);
    let mut session = Session::new();
    let ha = prepare(&mut session, &ca, &a.kernels, &[]);
    let hb = prepare(&mut session, &cb, &b.kernels, &[]);
    // The last prepare is a hit on `a`; `b`'s lowering is still unreported.
    assert_eq!(prepare(&mut session, &ca, &a.kernels, &[]), ha);
    let mut run = |h, case: &w::Case| {
        let (_, stats) = session
            .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, 1)
            .expect("run");
        (stats.plan_cache_hit, stats.plan_build_time)
    };
    let runs = [run(hb, &b), run(ha, &a), run(ha, &a), run(hb, &b)];
    let hits = runs.map(|(hit, _)| hit);
    assert_eq!(hits, [false, false, true, true]);
    let reported: std::time::Duration = runs.iter().map(|(_, t)| *t).sum();
    assert_eq!(reported, session.plan_stats().build_time);
    assert!(runs[2].1.is_zero() && runs[3].1.is_zero());
}

/// The pipeline fingerprint is part of the plan-cache key: two compiles
/// of the *same source program* under different pass configurations must
/// not share a cached plan, even when the optimized IR happens to be
/// identical. A trivial program (`iota` and return) is unchanged by every
/// pass, so only the fingerprint distinguishes the variants.
#[test]
fn pass_configuration_is_part_of_the_cache_key() {
    use arraymem_core::{compile, Options};
    use arraymem_ir::{Builder, ElemType};
    use arraymem_symbolic::Poly;

    let mut b = Builder::new("trivial");
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let a = body.iota("a", Poly::var(n));
    let blk = body.finish(vec![a]);
    let prog = b.finish(blk);
    let variants: Vec<Options> = vec![
        Options::default(),
        Options {
            hoist: false,
            ..Options::default()
        },
        Options::optimized(),
        Options {
            mapnest_in_place: false,
            ..Options::optimized()
        },
    ];
    let compiled: Vec<_> = variants
        .iter()
        .map(|o| compile(&prog, o).expect("compile"))
        .collect();
    // The program is untouched by every pass (modulo freshness counters)…
    let scrubbed = |p: &arraymem_ir::Program| {
        arraymem_ir::pretty::scrub_uniques(&arraymem_ir::pretty::program_to_string(p))
    };
    for c in &compiled {
        assert_eq!(
            scrubbed(&c.program),
            scrubbed(&compiled[0].program),
            "trivial program must be pass-invariant"
        );
    }
    // …yet every pass configuration gets its own plan cache entry.
    let kernels = KernelRegistry::default();
    let mut session = Session::new();
    let handles: Vec<_> = compiled
        .iter()
        .map(|c| prepare(&mut session, c, &kernels, &[]))
        .collect();
    for (i, hi) in handles.iter().enumerate() {
        for hj in &handles[i + 1..] {
            assert_ne!(hi, hj, "distinct pass configurations must not share a plan");
        }
    }
    let stats = session.plan_stats();
    assert_eq!(
        (stats.builds, stats.cache_hits),
        (4, 0),
        "each configuration lowers its own plan"
    );
    // Re-preparing any of them is a pure cache hit.
    for (c, h) in compiled.iter().zip(&handles) {
        assert_eq!(prepare(&mut session, c, &kernels, &[]), *h);
    }
    let stats = session.plan_stats();
    assert_eq!((stats.builds, stats.cache_hits), (4, 4));
}

/// The merge toggle alone separates cache entries: the same source
/// compiled with and without block merging must lower two distinct
/// plans — even for a program the pass leaves untouched, where only the
/// pipeline fingerprint tells the variants apart. A stale plan served
/// across the toggle would silently execute the wrong allocation layout.
#[test]
fn merge_toggle_is_part_of_the_cache_key() {
    use arraymem_core::{compile, Options};
    use arraymem_ir::{Builder, ElemType};
    use arraymem_symbolic::Poly;

    let mut b = Builder::new("trivial_merge");
    let n = b.scalar_param("n", ElemType::I64);
    let mut body = b.block();
    let a = body.iota("a", Poly::var(n));
    let blk = body.finish(vec![a]);
    let prog = b.finish(blk);

    let on = compile(&prog, &Options::optimized()).expect("merge-on compile");
    let off = compile(
        &prog,
        &arraymem_core::Options {
            merge: false,
            ..Options::optimized()
        },
    )
    .expect("merge-off compile");
    // One `iota` gives the merge pass nothing to do: the optimized IR is
    // identical either way…
    let scrubbed = |p: &arraymem_ir::Program| {
        arraymem_ir::pretty::scrub_uniques(&arraymem_ir::pretty::program_to_string(p))
    };
    assert_eq!(
        scrubbed(&on.program),
        scrubbed(&off.program),
        "trivial program must be merge-invariant"
    );
    assert!(on.report.merges.is_empty());
    // …yet each toggle state lowers its own plan, and re-preparing
    // either is a pure hit.
    let kernels = KernelRegistry::default();
    let mut session = Session::new();
    let h_on = prepare(&mut session, &on, &kernels, &[]);
    let h_off = prepare(&mut session, &off, &kernels, &[]);
    assert_ne!(h_on, h_off, "merge toggle must miss the plan cache");
    assert_eq!(prepare(&mut session, &on, &kernels, &[]), h_on);
    let stats = session.plan_stats();
    assert_eq!((stats.builds, stats.cache_hits), (2, 1));
}

/// Golden snapshot of the lowered NW plan (tiny dataset, optimized
/// pipeline). Catches unintended lowering changes; regenerate with
/// `ARRAYMEM_BLESS=1 cargo test -p arraymem-bench --test plan_cache`.
#[test]
fn nw_plan_snapshot() {
    let case = w::nw::case("snap", 2, 3, 1);
    let compiled = case.compile(true);
    let mut session = Session::new();
    let h = prepare(&mut session, &compiled, &case.kernels, &[]);
    let got = session.plan(h).pretty();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots/nw_plan.txt");
    if std::env::var_os("ARRAYMEM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); run with ARRAYMEM_BLESS=1 to create it")
    });
    assert!(
        got == want,
        "lowered NW plan drifted from tests/snapshots/nw_plan.txt;\n\
         re-bless with ARRAYMEM_BLESS=1 if the change is intentional.\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}
