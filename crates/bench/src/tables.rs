//! Table definitions and rendering in the paper's format.

use arraymem_workloads::{measure_case, Case, Measurement};

/// One paper table: its number, benchmark, and dataset builder.
#[derive(Clone, Copy, Debug)]
pub struct TableSpec {
    pub number: usize,
    pub title: &'static str,
    pub benchmark: &'static str,
    pub paper_runs: usize,
}

/// The seven tables of the paper's §VI, plus the three irregular-access
/// workloads (tables VIII–X, ours).
pub fn all_tables() -> Vec<TableSpec> {
    vec![
        TableSpec {
            number: 1,
            title: "NW performance",
            benchmark: "nw",
            paper_runs: 1000,
        },
        TableSpec {
            number: 2,
            title: "LUD performance",
            benchmark: "lud",
            paper_runs: 10,
        },
        TableSpec {
            number: 3,
            title: "Hotspot performance",
            benchmark: "hotspot",
            paper_runs: 10,
        },
        TableSpec {
            number: 4,
            title: "LBM performance",
            benchmark: "lbm",
            paper_runs: 100,
        },
        TableSpec {
            number: 5,
            title: "OptionPricing performance",
            benchmark: "optionpricing",
            paper_runs: 1000,
        },
        TableSpec {
            number: 6,
            title: "LocVolCalib performance",
            benchmark: "locvolcalib",
            paper_runs: 10,
        },
        TableSpec {
            number: 7,
            title: "NN performance",
            benchmark: "nn",
            paper_runs: 100,
        },
        // Tables VIII–X are not in the paper: the irregular-access family
        // exercises sound degradation of the affine analyses on
        // runtime-indexed (gather/scatter) dataflow.
        TableSpec {
            number: 8,
            title: "SpMV (CSR) performance",
            benchmark: "spmv",
            paper_runs: 10,
        },
        TableSpec {
            number: 9,
            title: "Histogram performance",
            benchmark: "histogram",
            paper_runs: 10,
        },
        TableSpec {
            number: 10,
            title: "Permutation performance",
            benchmark: "permutation",
            paper_runs: 10,
        },
    ]
}

/// The benchmark names [`table_cases`] accepts, in table order.
pub const KNOWN_BENCHMARKS: [&str; 10] = [
    "nw",
    "lud",
    "hotspot",
    "lbm",
    "optionpricing",
    "locvolcalib",
    "nn",
    "spmv",
    "histogram",
    "permutation",
];

/// Build the cases (all datasets) for one table. `quick` shrinks datasets
/// for smoke runs. Unknown names produce an error listing the known ones
/// (benchmark lists reach this from the command line).
pub fn table_cases(benchmark: &str, quick: bool) -> Result<Vec<Case>, String> {
    use arraymem_workloads as w;
    Ok(match benchmark {
        "nw" => {
            if quick {
                vec![w::nw::case("256", 16, 16, 2)]
            } else {
                w::nw::datasets()
                    .into_iter()
                    .map(|(l, q, b, r)| w::nw::case(l, q, b, r))
                    .collect()
            }
        }
        "lud" => {
            if quick {
                vec![w::lud::case("128", 8, 16, 2)]
            } else {
                w::lud::datasets()
                    .into_iter()
                    .map(|(l, q, b, r)| w::lud::case(l, q, b, r))
                    .collect()
            }
        }
        "hotspot" => {
            if quick {
                vec![w::hotspot::case("128", 128, 8, 2)]
            } else {
                w::hotspot::datasets()
                    .into_iter()
                    .map(|(l, n, s, r)| w::hotspot::case(l, n, s, r))
                    .collect()
            }
        }
        "lbm" => {
            if quick {
                vec![w::lbm::case("short", (16, 16, 8), 3, 2)]
            } else {
                w::lbm::datasets()
                    .into_iter()
                    .map(|(l, d, s, r)| w::lbm::case(l, d, s, r))
                    .collect()
            }
        }
        "optionpricing" => {
            if quick {
                vec![w::optionpricing::case("medium", 2048, 32, 2)]
            } else {
                w::optionpricing::datasets()
                    .into_iter()
                    .map(|(l, n, s, r)| w::optionpricing::case(l, n, s, r))
                    .collect()
            }
        }
        "locvolcalib" => {
            if quick {
                vec![w::locvolcalib::case("small", 16, 64, 16, 2)]
            } else {
                w::locvolcalib::datasets()
                    .into_iter()
                    .map(|(l, o, x, t, r)| w::locvolcalib::case(l, o, x, t, r))
                    .collect()
            }
        }
        "nn" => {
            if quick {
                vec![w::nn::case("8552", 8552, 8, 2)]
            } else {
                w::nn::datasets()
                    .into_iter()
                    .map(|(l, n, k, r)| w::nn::case(l, n, k, r))
                    .collect()
            }
        }
        "spmv" => {
            if quick {
                vec![w::irregular::spmv_case("2k×2k", 2_000, 2_000, 8, 2)]
            } else {
                w::irregular::spmv_datasets()
                    .into_iter()
                    .map(|(l, nr, nc, z, r)| w::irregular::spmv_case(l, nr, nc, z, r))
                    .collect()
            }
        }
        "histogram" => {
            if quick {
                vec![w::irregular::histogram_case("10k/64", 10_000, 64, 2)]
            } else {
                w::irregular::histogram_datasets()
                    .into_iter()
                    .map(|(l, n, b, r)| w::irregular::histogram_case(l, n, b, r))
                    .collect()
            }
        }
        "permutation" => {
            if quick {
                vec![w::irregular::permutation_case("10k", 10_000, 2)]
            } else {
                w::irregular::permutation_datasets()
                    .into_iter()
                    .map(|(l, n, r)| w::irregular::permutation_case(l, n, r))
                    .collect()
            }
        }
        other => {
            return Err(format!(
                "unknown benchmark {other:?}; known benchmarks: {}",
                KNOWN_BENCHMARKS.join(", ")
            ))
        }
    })
}

/// Render measurements in the paper's column format:
/// Dataset | Ref. | Unopt. Futhark | Opt. Futhark | Opt. Impact.
pub fn render_table(spec: &TableSpec, rows: &[Measurement]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "TABLE {} — {} ({} runs in the paper; CPU-scaled datasets)\n",
        roman(spec.number),
        spec.title,
        spec.paper_runs
    ));
    s.push_str(&format!(
        "{:<10} {:>12} {:>16} {:>14} {:>12}\n",
        "Dataset", "Ref.", "Unopt. Futhark", "Opt. Futhark", "Opt. Impact"
    ));
    for m in rows {
        s.push_str(&format!(
            "{:<10} {:>10.2}ms {:>15.2}x {:>13.2}x {:>11.2}x\n",
            m.dataset,
            m.reference.as_secs_f64() * 1e3,
            m.unopt_rel(),
            m.opt_rel(),
            m.impact()
        ));
    }
    s
}

/// Render the mechanism rows under a table: what the optimizer *did*
/// (copied/elided bytes) and what the substrate did (allocations,
/// free-list reuse, elided zeroing, pool dispatches), per variant.
pub fn render_mechanism(rows: &[Measurement]) -> String {
    let mut s = String::new();
    for m in rows {
        s.push_str(&format!(
            "  {:<10} unopt copied {:>12} B | opt copied {:>12} B | elided {:>12} B\n",
            m.dataset,
            m.unopt_stats.bytes_copied,
            m.opt_stats.bytes_copied,
            m.opt_stats.bytes_elided
        ));
        // Every `Stats` counter, per variant, straight from the field
        // table: what the optimizer did, what the store and the pool did.
        for (label, st) in [("unopt", &m.unopt_stats), ("opt", &m.opt_stats)] {
            let counters: Vec<String> = st.counters().map(|(k, v)| format!("{k} {v}")).collect();
            for line in counters.chunks(5) {
                s.push_str(&format!(
                    "  {:<10} {:<5} | {}\n",
                    m.dataset,
                    label,
                    line.join(" | ")
                ));
            }
        }
        for (label, pl) in [("unopt", &m.unopt_plan), ("opt", &m.opt_plan)] {
            s.push_str(&format!(
                "  {:<10} {:<5} plan_builds {:>2} | plan_cache_hits {:>5} | plan_build {:>8.3}ms\n",
                m.dataset,
                label,
                pl.builds,
                pl.cache_hits,
                pl.build_time.as_secs_f64() * 1e3
            ));
        }
        for (label, passes) in [("unopt", &m.unopt_passes), ("opt", &m.opt_passes)] {
            for p in passes.iter() {
                s.push_str(&format!(
                    "  {:<10} {:<5} pass {:<13} {:>8.3}ms | stms {:>3} → {:>3} | remarks {:>3}\n",
                    m.dataset,
                    label,
                    p.name,
                    p.time.as_secs_f64() * 1e3,
                    p.before.stms,
                    p.after.stms,
                    p.remarks
                ));
            }
        }
    }
    s
}

fn roman(n: usize) -> &'static str {
    [
        "", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X",
    ][n]
}

/// How much of a table to measure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunMode {
    /// Full (CPU-scaled) datasets, paper-style run counts.
    Full,
    /// Tiny datasets, normal run counts.
    Quick,
    /// Tiny datasets, a single measured run per variant — the CI mode.
    Smoke,
}

/// Measure one table's rows at the default worker-pool thread count.
pub fn measure_table(spec: &TableSpec, mode: RunMode) -> Result<Vec<Measurement>, String> {
    let mut cases = table_cases(spec.benchmark, mode != RunMode::Full)?;
    if mode == RunMode::Smoke {
        for c in &mut cases {
            c.runs = 1;
        }
    }
    Ok(cases.iter().map(measure_case).collect())
}

/// Measure and render one table end to end.
pub fn run_table(spec: &TableSpec, mode: RunMode) -> Result<String, String> {
    let rows = measure_table(spec, mode)?;
    Ok(format!(
        "{}{}",
        render_table(spec, &rows),
        render_mechanism(&rows)
    ))
}

/// Run one table's cases under the checked-mode sanitizer instead of
/// measuring them (the `tables --check` path): each optimized case runs
/// twice through one session (the second run exercises recycled stale
/// blocks), with every short-circuit decision concretely cross-checked.
/// Returns the rendered report and the total number of findings — a
/// skipped circuit check counts as one.
pub fn check_table(spec: &TableSpec, mode: RunMode) -> Result<(String, u64), String> {
    let cases = table_cases(spec.benchmark, mode != RunMode::Full)?;
    let mut s = format!("CHECK {} — {}\n", roman(spec.number), spec.title);
    let mut findings = 0u64;
    for case in &cases {
        let stats = case.validate_checked();
        let n = stats.diagnostics.len() as u64 + stats.diagnostics_suppressed;
        findings += n + stats.circuits_skipped;
        s.push_str(&format!(
            "  {:<10} {:>12} cells checked | {:>4} circuit checks verified, {} skipped | {} diagnostics\n",
            case.dataset, stats.cells_checked, stats.circuits_verified, stats.circuits_skipped, n
        ));
        for d in &stats.diagnostics {
            s.push_str(&format!("    {d}\n"));
        }
    }
    Ok((s, findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_benchmark_is_an_error_listing_known_names() {
        let err = match table_cases("nwe", true) {
            Err(e) => e,
            Ok(_) => panic!("'nwe' must not resolve to a benchmark"),
        };
        assert!(err.contains("unknown benchmark \"nwe\""), "{err}");
        for known in KNOWN_BENCHMARKS {
            assert!(err.contains(known), "error must list {known}: {err}");
        }
        // And every advertised name actually resolves.
        for known in KNOWN_BENCHMARKS {
            match table_cases(known, true) {
                Ok(cases) => assert!(!cases.is_empty()),
                Err(e) => panic!("{known} must resolve: {e}"),
            }
        }
    }
}
