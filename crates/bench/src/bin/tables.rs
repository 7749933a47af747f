//! Regenerate the paper's tables and figure artifacts.
//!
//! ```text
//! tables                 # all tables (paper I-VII + irregular VIII-X),
//!                        # full (scaled) datasets
//! tables --quick         # tiny datasets, normal run counts
//! tables --smoke         # tiny datasets, one measured run each (CI)
//! tables --table N       # one table
//! tables --figures       # print the figure artifacts instead
//! tables --check         # run cases under the checked-mode sanitizer
//!                        # instead of measuring; exit 1 on any finding
//! ```
//!
//! Thread scaling, the multi-tenant server and machine-readable output
//! are the repo benchmark's job (`benchmark/`, see its README).

use arraymem_bench::tables::{all_tables, check_table, run_table, RunMode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, a) in args.iter().enumerate() {
        let is_value_arg = i > 0 && args[i - 1] == "--table";
        if !is_value_arg
            && !matches!(
                a.as_str(),
                "--quick" | "--smoke" | "--figures" | "--table" | "--check"
            )
        {
            eprintln!("error: unknown argument {a:?}");
            eprintln!("usage: tables [--quick] [--smoke] [--table N] [--figures] [--check]");
            std::process::exit(2);
        }
    }
    let mode = if args.iter().any(|a| a == "--smoke") {
        RunMode::Smoke
    } else if args.iter().any(|a| a == "--quick") {
        RunMode::Quick
    } else {
        RunMode::Full
    };
    if args.iter().any(|a| a == "--figures") {
        println!("{}", arraymem_bench::figures::fig2_nw_pattern(4, 3, 2));
        println!("{}", arraymem_bench::figures::fig3_chain());
        println!("{}", arraymem_bench::figures::fig9_proof());
        println!("{}", arraymem_bench::figures::fig10_patterns());
        return;
    }
    let only: Option<usize> = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    if let Some(t) = only {
        if !(1..=10).contains(&t) {
            eprintln!(
                "error: no table {t}; the paper has tables 1-7, plus 8-10 for the \
                 irregular-access family"
            );
            std::process::exit(2);
        }
    }
    let check = args.iter().any(|a| a == "--check");
    let mut total_findings = 0u64;
    for spec in all_tables() {
        if only.is_some_and(|t| spec.number != t) {
            continue;
        }
        let report = if check {
            check_table(&spec, mode).map(|(report, findings)| {
                total_findings += findings;
                report
            })
        } else {
            run_table(&spec, mode).map(|table| table + "\n")
        };
        match report {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if check {
        if total_findings > 0 {
            eprintln!(
                "checked mode: {total_findings} sanitizer findings or skipped circuit checks"
            );
            std::process::exit(1);
        }
        println!("checked mode: all cases clean");
    }
}
