//! End-to-end acceptance of the `par_safety` stage: LMAD-proven maps run
//! **parallel and in place** (no private-tile copy) across the benchmark
//! suite, with bit-identical results in Memory and Checked mode at every
//! thread count.

use arraymem_bench::tables::{table_cases, KNOWN_BENCHMARKS};
use arraymem_core::ParLevel;
use arraymem_exec::{Mode, OutputValue, Session};

/// Compile every benchmark with optimizations and report the verdict mix
/// (probe used by the assertions below; run with `--nocapture` to see it).
fn verdicts() -> Vec<(String, usize, usize, usize)> {
    let mut rows = Vec::new();
    for name in KNOWN_BENCHMARKS {
        for case in table_cases(name, true).unwrap() {
            let compiled = case.compile(true);
            let recs = &compiled.report.par_safety;
            let safe = recs.iter().filter(|r| r.level == ParLevel::Safe).count();
            let buf = recs
                .iter()
                .filter(|r| r.level == ParLevel::NeedsBuffer)
                .count();
            let serial = recs.iter().filter(|r| r.level == ParLevel::Serial).count();
            println!(
                "{name:<14} {}: safe {safe:>2} | buffered {buf:>2} | serial {serial:>2}  {:?}",
                case.dataset,
                recs.iter().map(|r| (r.level, r.reject)).collect::<Vec<_>>()
            );
            rows.push((name.to_string(), safe, buf, serial));
        }
    }
    rows
}

#[test]
fn the_suite_proves_parallel_safety_somewhere() {
    let rows = verdicts();
    let with_safe = rows.iter().filter(|(_, s, _, _)| *s > 0).count();
    assert!(
        with_safe >= 3,
        "expected >=3 workloads with a Safe mapnest, got {with_safe}: {rows:?}"
    );
}

fn bytes_of(out: &[OutputValue]) -> Vec<u8> {
    let mut b = Vec::new();
    for o in out {
        b.extend_from_slice(format!("{o:?}").as_bytes());
    }
    b
}

/// Acceptance: at least three workloads execute a mapnest parallel **and**
/// in place (`maps_parallel_in_place > 0` — dispatched to the pool,
/// writing result memory directly under a `par_safety` proof), and their
/// outputs are bit-identical across Memory and Checked mode at 1, 2, and
/// max threads.
#[test]
fn proven_maps_run_parallel_in_place_with_identical_outputs() {
    let max = 8;
    let mut parallel_in_place = 0usize;
    for name in KNOWN_BENCHMARKS {
        for case in table_cases(name, true).unwrap() {
            let compiled = case.compile(true);
            let mut golden: Option<Vec<u8>> = None;
            let mut copies: Option<u64> = None;
            let mut best = 0u64;
            for threads in [1usize, 2, max] {
                let mut session = Session::new();
                let (out, stats) = case.run_in_at(&mut session, &compiled, threads);
                // Parallelism must not introduce copies: a proven map
                // writes its result memory directly at every thread
                // count, so copy traffic (updates/concats/buffered maps)
                // is thread-invariant.
                match copies {
                    None => copies = Some(stats.bytes_copied),
                    Some(c) => assert_eq!(
                        c, stats.bytes_copied,
                        "{name}/{}: thread count changed copy traffic (threads {threads})",
                        case.dataset
                    ),
                }
                best = best.max(stats.maps_parallel_in_place);
                let b = bytes_of(&out);
                match &golden {
                    None => golden = Some(b),
                    Some(g) => assert_eq!(
                        g, &b,
                        "{name}/{}: Memory-mode output differs at {threads} threads",
                        case.dataset
                    ),
                }
            }
            for threads in [1usize, max] {
                let mut session = Session::new();
                let (out, stats) = case.run_checked_in_at(&mut session, &compiled, threads);
                assert!(
                    stats.diagnostics.is_empty(),
                    "{name}/{}: checked run at {threads} threads found {:?}",
                    case.dataset,
                    stats.diagnostics
                );
                assert_eq!(
                    golden.as_ref().unwrap(),
                    &bytes_of(&out),
                    "{name}/{}: Checked-mode output differs at {threads} threads",
                    case.dataset
                );
            }
            if best > 0 {
                parallel_in_place += 1;
            }
        }
    }
    assert!(
        parallel_in_place >= 3,
        "expected >=3 workloads executing a mapnest parallel-and-in-place, \
         got {parallel_in_place}"
    );
}

/// A map lowered without its `par_safety` record is held to the
/// conservative verdict, never trusted: NW's in-place diagonal mapnests
/// (one of which the analysis classifies `Serial`), lowered with
/// `par: &[]` and run at 8 threads, stay off the pool entirely and
/// reproduce the 1-thread output bit for bit.
#[test]
fn a_map_without_its_record_runs_serially() {
    // 512 blocks per side: the long diagonals clear the pool's inline
    // threshold, so a trusting schedule would dispatch them.
    let case = arraymem_workloads::nw::case("1025", 512, 2, 1);
    let compiled = case.compile(true);
    assert!(
        compiled
            .report
            .par_safety
            .iter()
            .any(|r| r.level == ParLevel::Serial),
        "{:?}",
        compiled.report.par_safety
    );
    let mut session = Session::new();
    let h = session
        .prepare_full(
            &compiled.program,
            &case.kernels,
            &[],
            &compiled.report.merges,
            &[],
        )
        .expect("prepare");
    let mut run = |threads| {
        session
            .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, threads)
            .expect("run")
    };
    let (serial_out, _) = run(1);
    let (out, stats) = run(8);
    assert_eq!(
        stats.pool_dispatches, 0,
        "direct-writing maps dispatched without a proof"
    );
    assert_eq!(bytes_of(&serial_out), bytes_of(&out));
    // With its records the same program does use the pool.
    let (_, with_records) = case.run_in_at(&mut Session::new(), &compiled, 8);
    assert!(with_records.pool_dispatches > 0);
}
