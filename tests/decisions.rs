//! Golden optimizer decisions: for every quick workload case under both
//! option sets and for every corpus entry, the remark stream, the merge
//! and parallel-safety records and the compiled program, with freshness
//! suffixes scrubbed. A refactor of the middle-end must leave this file
//! byte-identical; a change to it is a changed decision and needs its own
//! justification. Regenerate with `ARRAYMEM_BLESS=1 cargo test -p
//! arraymem-bench --test decisions`.
//!
//! One test in a binary of its own: symbols are interned in one
//! deterministic order, so polynomial term order is stable.

use arraymem_bench::tables::{table_cases, KNOWN_BENCHMARKS};
use arraymem_core::{compile, Compiled, MergeRecord, Options};
use arraymem_fuzz::{build_program, corpus};
use arraymem_ir::pretty::{program_to_string, scrub_uniques};
use std::fmt::Write;

fn render(title: &str, c: &Compiled, out: &mut String) {
    let mut s = String::new();
    writeln!(s, "== {title} ==").unwrap();
    for r in &c.compile_report.remarks {
        match r.stm {
            Some(v) => writeln!(s, "remark {} {v}-{:?}", r.pass, r.kind).unwrap(),
            // Unanchored remarks carry their count in the message.
            None => writeln!(s, "remark {} -{:?} {}", r.pass, r.kind, r.message).unwrap(),
        }
    }
    for m in &c.report.merges {
        match m {
            MergeRecord::Share { host, victim } => {
                writeln!(s, "merge Share {victim} -> {host}").unwrap()
            }
            MergeRecord::CarriedRelease {
                loop_mem,
                yield_mem,
                after_stm,
                color,
            } => writeln!(
                s,
                "merge CarriedRelease {loop_mem} {yield_mem} after {after_stm} color={color}"
            )
            .unwrap(),
        }
    }
    for p in &c.report.par_safety {
        writeln!(
            s,
            "par {} {:?} {:?} forced={}",
            p.stm, p.level, p.reject, p.forced
        )
        .unwrap();
    }
    s.push_str(&program_to_string(&c.program));
    out.push_str(&scrub_uniques(&s));
}

#[test]
fn optimizer_decisions_match_the_golden_file() {
    let mut got = String::new();
    for benchmark in KNOWN_BENCHMARKS {
        let case = &table_cases(benchmark, true).expect("known benchmark")[0];
        for (label, optimized) in [("default", false), ("optimized", true)] {
            let title = format!("{benchmark}/{} {label}", case.dataset);
            render(&title, &case.compile(optimized), &mut got);
        }
    }
    for (kind, dir) in [
        ("seed", corpus::seeds_dir()),
        ("regression", corpus::regressions_dir()),
    ] {
        for entry in corpus::load_dir(&dir).expect("load corpus") {
            let prog = build_program(&entry.ops).expect("corpus entry builds");
            for (label, opts) in [
                ("default", Options::default()),
                ("optimized", Options::optimized()),
            ] {
                let compiled = compile(&prog, &opts).expect("compile");
                render(
                    &format!("{kind} {} {label}", entry.name),
                    &compiled,
                    &mut got,
                );
            }
        }
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/snapshots/decisions.txt");
    if std::env::var_os("ARRAYMEM_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {path:?} ({e}); run with ARRAYMEM_BLESS=1 to create it")
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "optimizer decisions drifted from {path:?} at line {}:\n got: {:?}\nwant: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
