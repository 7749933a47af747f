//! The merge pass on every workload — bit-identical outputs, lower peak
//! memory, no sanitizer findings — and an independent re-proof of every
//! `Share` it records, over the workloads, the corpus and random traces.
//!
//! One persistent [`Session`] runs every workload with the pass off and
//! on in both `Memory` and `Checked` mode, so merged plans prove themselves against block recycling from
//! *other* programs' runs too.

use arraymem_bench::tables::{table_cases, KNOWN_BENCHMARKS};
use arraymem_core::{compile, compile_observed, MergeRecord, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode, OutputValue, Session, Stats};
use arraymem_fuzz::{build_program, corpus, random_ops};
use arraymem_ir::{Exp, PatElem, Program, Stm, Var};
use arraymem_symbolic::Rng64;
use arraymem_workloads as w;
use arraymem_workloads::Case;
use std::collections::{HashMap, HashSet};

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

/// Compiles `src` merge off and on and runs it in `Memory` and `Checked`:
/// each run must compute what `Pure` does (every element `expect`) with
/// no diagnostic. `check` sees each optimized program, with its `merge`.
fn agrees_with_pure(src: &str, expect: f32, check: impl Fn(bool, &Program)) {
    let elab = arraymem_lang::parse_program(src).expect("parse");
    let inputs = [InputValue::I64(4)];
    let kernels = KernelRegistry::new();
    let (pure, _) = run_program(&elab.program, &inputs, &kernels, Mode::Pure, 1).expect("pure");
    assert_eq!(pure[0].as_f32s(), &[expect; 4]);
    let mut session = Session::new();
    for merge in [false, true] {
        let opts = Options {
            merge,
            ..Options::optimized()
        }
        .with_env(elab.env.clone());
        let compiled = compile(&elab.program, &opts).expect("compile");
        check(merge, &compiled.program);
        let h = session
            .prepare_full(
                &compiled.program,
                &kernels,
                &[],
                &compiled.report.merges,
                &[],
            )
            .expect("prepare");
        for mode in [Mode::Memory, Mode::Checked] {
            let (out, stats) = session
                .run_plan(h, &inputs, &kernels, mode, 1)
                .expect("run");
            assert!(
                out[0].approx_eq(&pure[0], 0.0),
                "merge={merge}/{mode:?}: {:?}, Pure computes {:?}",
                out[0],
                pure[0]
            );
            assert!(stats.diagnostics.is_empty(), "{:?}", stats.diagnostics);
        }
    }
}

/// A loop whose body yields an array bound *outside* the body: the loop
/// result lives in that outer array's block, so the block stays live
/// while the result is read. Merging `t`'s block into it while `f` is
/// still to be read overwrote `f` (`Memory` and `Checked` computed 10.0,
/// `Pure` 8.0, and the sanitizer saw nothing wrong). A body yielding
/// another merge parameter — a swap, a rotation — yields that
/// parameter's block: each result is read after the loop.
#[test]
fn loop_yielding_an_outer_array_keeps_its_block_live() {
    const YIELD_OUTER: &str = "
        fn yield_outer(n: i64) =
          let outer = replicate [4] 3.0 in
          let init = replicate [4] 0.0 in
          let f = loop (p = init) for i < 2 do { outer } in
          let t = replicate [4] 5.0 in
          let s = map (\\a b -> a + b) t f in
          s
    ";
    agrees_with_pure(YIELD_OUTER, 8.0, |merge, prog| {
        // The block the array named `name` (`name#N` once interned) lives in.
        let home = |name: &str| {
            let mut pats = prog.body.stms.iter().flat_map(|s| &s.pat);
            let pe = pats.find(|pe| pe.mem.is_some() && pe.var.to_string().starts_with(name));
            pe.and_then(|pe| pe.mem.as_ref()).map(|mb| mb.block)
        };
        assert_ne!(
            home("t#"),
            home("outer#"),
            "merge={merge}: t shares outer's block"
        );
    });
    const SWAP: &str = "
        fn swap(n: i64) =
          let x = replicate [4] 1.0 in
          let y = replicate [4] 2.0 in
          let (a, b) = loop (a = x, b = y) for i < 3 do { (b, a) } in
          let t = replicate [4] 5.0 in
          let s = map (\\p q -> p + q) t a in
          let u = map (\\p q -> p * q) s b in
          u
    ";
    agrees_with_pure(SWAP, 7.0, |_, _| {});
    const ROTATE: &str = "
        fn rotate(n: i64) =
          let x = replicate [4] 1.0 in
          let y = replicate [4] 2.0 in
          let z = replicate [4] 4.0 in
          let (a, b, c) = loop (a = x, b = y, c = z) for i < 2 do { (b, c, a) } in
          let t = replicate [4] 8.0 in
          let s = map (\\p q -> p + q) t a in
          let u = map (\\p q -> p * q) s b in
          let v = map (\\p q -> p - q) u c in
          v
    ";
    agrees_with_pure(ROTATE, 10.0, |_, _| {});
}

/// Every variable a statement names: the free variables of its
/// expression, and what it binds at any depth with the block each binding
/// is annotated into.
fn names(stm: &Stm) -> HashSet<Var> {
    let mut out: HashSet<Var> = stm.exp.free_vars().into_iter().collect();
    let mut bind = |pe: &PatElem| {
        out.insert(pe.var);
        out.extend(pe.mem.as_ref().map(|mb| mb.block));
    };
    stm.bound().for_each(&mut bind);
    for nested in stm.exp.blocks() {
        nested.for_each_stm(&mut |s| s.bound().for_each(&mut bind));
    }
    out
}

/// The first and last top-level statement (the result counts as one more)
/// that names each memory block or an array annotated into it, by a plain
/// syntactic scan. An `alloc` does not touch the block it creates.
fn syntactic_ranges(prog: &Program) -> HashMap<Var, (usize, usize)> {
    let mut block_of: HashMap<Var, Var> = HashMap::new();
    prog.body.for_each_stm(&mut |s| {
        for pe in s.bound() {
            block_of.extend(pe.mem.as_ref().map(|mb| (pe.var, mb.block)));
        }
    });
    let mut ranges: HashMap<Var, (usize, usize)> = HashMap::new();
    let uses = prog.body.stms.iter().map(names);
    let result = prog.body.result.iter().copied().collect();
    for (i, named) in uses.chain([result]).enumerate() {
        if matches!(prog.body.stms.get(i), Some(s) if matches!(s.exp, Exp::Alloc { .. })) {
            continue;
        }
        for v in named {
            let block = block_of.get(&v).copied().unwrap_or(v);
            ranges.entry(block).or_insert((i, i)).1 = i;
        }
    }
    ranges
}

/// Compile `prog` and re-prove each `Share` of the result against the
/// program the merge pass was given; returns how many pairs of tenants
/// were compared.
fn check_shares(what: &str, prog: &Program, opts: &Options) -> usize {
    let mut before_merge = None;
    let mut merged = false;
    let compiled = compile_observed(prog, opts, &mut |stage, p| {
        merged |= stage == "merge";
        if !merged {
            before_merge = Some(p.clone());
        }
    })
    .unwrap_or_else(|e| panic!("{what}: compile failed: {e}"));
    let ranges = syntactic_ranges(&before_merge.expect("stages ran before merge"));
    // The tenants of each surviving block: the host and all its victims.
    let mut tenants: HashMap<Var, Vec<Var>> = HashMap::new();
    let mut compared = 0;
    for m in &compiled.report.merges {
        if let MergeRecord::Share { host, victim } = m {
            let group = tenants.entry(*host).or_insert_with(|| vec![*host]);
            for resident in group.iter() {
                if let (Some(r), Some(v)) = (ranges.get(resident), ranges.get(victim)) {
                    assert!(
                        r.1 < v.0 || v.1 < r.0,
                        "{what}: {victim} (statements {v:?}) shares {host} with {resident} \
                         (statements {r:?}) while both are live"
                    );
                    compared += 1;
                }
            }
            group.push(*victim);
        }
    }
    compared
}

/// The re-proof lifetime merges have: a merge is sound when no two
/// tenants of a block are live together, and whether they are is checked
/// here without the pass's own liveness — ranges recomputed from the
/// pre-merge program by name alone. They are narrower than the pass's
/// (no alias closure), so an overlap here is an overlap there: no false
/// alarm, and a scan that let overlapping ranges share fails. They read
/// the same annotations as the pass, though, so they are independent of
/// it only as far as the annotations are truthful — which is what
/// `validate_memory`'s loop-memory rule checks after every stage of a
/// debug build (a loop yielding an outer array under its own mem
/// parameter's name fooled both: see
/// `loop_yielding_an_outer_array_keeps_its_block_live`).
#[test]
fn every_share_is_between_disjoint_live_ranges() {
    let merge_only = Options {
        merge: true,
        ..Options::default()
    };
    let mut compared = 0;
    for benchmark in KNOWN_BENCHMARKS {
        let case = &table_cases(benchmark, true).expect("known benchmark")[0];
        for opts in [Options::optimized(), merge_only.clone()] {
            compared += check_shares(benchmark, &case.program, &opts.with_env(case.env.clone()));
        }
    }
    for dir in [corpus::seeds_dir(), corpus::regressions_dir()] {
        for entry in corpus::load_dir(&dir).expect("load corpus") {
            let prog = build_program(&entry.ops).expect("corpus entry builds");
            for opts in [Options::optimized(), merge_only.clone()] {
                compared += check_shares(&entry.name, &prog, &opts);
            }
        }
    }
    let mut meta = Rng64::new(0x11FE);
    for k in 0..2000 {
        let (seed, len) = (meta.next_u64(), if k % 2 == 0 { 16 } else { 64 });
        if let Some(prog) = build_program(&random_ops(seed, len)) {
            let what = format!("random_ops({seed:#x}, {len})");
            compared += check_shares(&what, &prog, &Options::optimized());
        }
    }
    assert!(compared > 10_000, "only {compared} pairs were compared");
}
