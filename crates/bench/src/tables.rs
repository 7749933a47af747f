//! Table definitions and rendering in the paper's format.

use arraymem_workloads::{measure_case_at, Case, Measurement};
use std::time::Instant;

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
        "{:<10} {:>4} {:>12} {:>16} {:>14} {:>12}\n",
        "Dataset", "Thr", "Ref.", "Unopt. Futhark", "Opt. Futhark", "Opt. Impact"
    ));
    for m in rows {
        s.push_str(&format!(
            "{:<10} {:>4} {:>10.2}ms {:>15.2}x {:>13.2}x {:>11.2}x\n",
            m.dataset,
            m.threads,
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
                    "  {:<10} {:<5} threads {:>3} | {}\n",
                    m.dataset,
                    label,
                    m.threads,
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

/// Measure one table's rows (the shared engine behind the rendered and
/// JSON outputs) at the default worker-pool thread count.
pub fn measure_table(spec: &TableSpec, mode: RunMode) -> Result<Vec<Measurement>, String> {
    measure_table_at(spec, mode, arraymem_exec::default_threads())
}

/// [`measure_table`] at an explicit thread count — `tables --threads
/// 1,2,4,8` calls this once per count to chart the scaling trajectory.
pub fn measure_table_at(
    spec: &TableSpec,
    mode: RunMode,
    threads: usize,
) -> Result<Vec<Measurement>, String> {
    let mut cases = table_cases(spec.benchmark, mode != RunMode::Full)?;
    if mode == RunMode::Smoke {
        for c in &mut cases {
            c.runs = 1;
        }
    }
    Ok(cases.iter().map(|c| measure_case_at(c, threads)).collect())
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

/// One tenant's aggregated figures inside a [`ServerBenchRow`].
#[derive(Clone, Debug)]
pub struct TenantRow {
    pub tenant: String,
    pub runs: u64,
    pub num_allocs: u64,
    pub blocks_reused: u64,
    pub arena_blocks_adopted: u64,
    pub bytes_cross_tenant_scrubbed: u64,
    pub bytes_zeroing_elided: u64,
}

/// One benchmark's multi-tenant server sweep: N clients hammering one
/// [`arraymem_server::Server`] across M tenants.
#[derive(Clone, Debug)]
pub struct ServerBenchRow {
    pub benchmark: String,
    pub dataset: String,
    pub clients: usize,
    pub tenants: usize,
    /// Memory-mode executions completed (the throughput numerator).
    pub runs: u64,
    pub wall_ms: f64,
    pub throughput_rps: f64,
    /// Plans actually lowered by the shared cache…
    pub plan_builds: u64,
    /// …which the acceptance criterion compares against the number of
    /// distinct (program, options) request keys the sweep issued.
    pub distinct_plans: u64,
    pub plan_cache_hits: u64,
    pub stampedes_coalesced: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub queued: u64,
    pub peak_queue_depth: usize,
    pub peak_in_flight: usize,
    pub avg_queue_wait_ms: f64,
    pub arena_blocks_adopted: u64,
    pub bytes_cross_tenant_scrubbed: u64,
    /// The largest single tenant's `peak_bytes_live` (what
    /// `Stats::merge` reports for the fleet aggregate).
    pub tenant_peak_max_bytes: u64,
    /// The shared arena's high-water across all tenants *concurrently*
    /// — ≥ the per-tenant max whenever tenants peak together.
    pub arena_peak_bytes_live: u64,
    /// Checked-mode sanitizer findings across every tenant (must be 0:
    /// cross-tenant recycling may never trip provenance on a correct
    /// program).
    pub checked_diagnostics: u64,
    pub tenant_rows: Vec<TenantRow>,
}

/// Run the 16-client-style server sweep for one table: every client
/// replays the table's first dataset through one shared server (clients
/// round-robin across `tenants` tenant names), first in `Mode::Memory`
/// (measured for throughput), then once each under `Mode::Checked` (the
/// cross-tenant provenance leg). Outputs are validated against the
/// case's reference implementation on every client's first run.
pub fn measure_server_table(
    spec: &TableSpec,
    mode: RunMode,
    clients: usize,
    tenants: usize,
) -> Result<ServerBenchRow, String> {
    use arraymem_exec::{Mode, PlanCache};
    use arraymem_server::{ExecRequest, Server, ServerConfig};

    let mut cases = table_cases(spec.benchmark, mode != RunMode::Full)?;
    let mut case = cases.remove(0);
    if mode == RunMode::Smoke {
        case.runs = 1;
    }
    let clients = clients.max(1);
    let tenants = tenants.max(1).min(clients);
    let opt = case.compile(true);
    let checks: Vec<_> = opt.report.checks().cloned().collect();
    let (_, expect) = (case.reference)(&case.inputs);
    // The request keys this sweep will present: the memory leg prepares
    // without circuit checks, the checked leg with them — distinct
    // (program, options) pairs, or one pair when the check set is empty.
    let mut keys = vec![
        PlanCache::key(
            &opt.program,
            &case.kernels,
            &[],
            &opt.report.merges,
            &opt.report.par_safety,
        ),
        PlanCache::key(
            &opt.program,
            &case.kernels,
            &checks,
            &opt.report.merges,
            &opt.report.par_safety,
        ),
    ];
    keys.sort_unstable();
    keys.dedup();
    let distinct_plans = keys.len() as u64;

    let server = Server::new(ServerConfig {
        cache_shards: 16,
        max_in_flight: 4,
        queue_depth: clients,
        threads: 1,
    });
    // Only the Sync parts of the case cross into client threads (the
    // reference closure itself is not shareable).
    let kernels = &case.kernels;
    let inputs = &case.inputs;
    let case_name = &case.name;
    let case_dataset = &case.dataset;
    let tol = case.tol;
    let tenant_name = |c: usize| format!("tenant-{}", c % tenants);
    let expect = &expect;
    let validate = move |out: &[arraymem_exec::OutputValue], what: &str| -> Result<(), String> {
        if expect.len() != out.len() {
            return Err(format!(
                "{case_name}/{case_dataset}: {what}: arity mismatch vs reference"
            ));
        }
        for (k, (e, o)) in expect.iter().zip(out).enumerate() {
            if !e.approx_eq(o, tol) {
                return Err(format!(
                    "{case_name}/{case_dataset}: {what}: output {k} differs from reference"
                ));
            }
        }
        Ok(())
    };

    // Memory-mode throughput phase.
    let runs_per_client = case.runs.max(1);
    let t0 = Instant::now();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                let opt = &opt;
                let tenant = tenant_name(c);
                let validate = &validate;
                scope.spawn(move || -> Result<(), String> {
                    let req = ExecRequest {
                        program: &opt.program,
                        kernels,
                        checks: &[],
                        merges: &opt.report.merges,
                        par: &opt.report.par_safety,
                        inputs,
                        mode: Mode::Memory,
                    };
                    for run in 0..runs_per_client {
                        let (out, _) = server
                            .execute(&tenant, req)
                            .map_err(|e| format!("client {c} ({tenant}): {e}"))?;
                        if run == 0 {
                            validate(&out, "server memory run")?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect()
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let wall = t0.elapsed();
    let memory_runs = (clients * runs_per_client) as u64;

    // Checked phase: one sanitized run per client, still concurrent —
    // cross-tenant arena adoptions must stay silent.
    let checked_errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                let opt = &opt;
                let checks = &checks;
                let tenant = tenant_name(c);
                let validate = &validate;
                scope.spawn(move || -> Result<(), String> {
                    let req = ExecRequest {
                        program: &opt.program,
                        kernels,
                        checks,
                        merges: &opt.report.merges,
                        par: &opt.report.par_safety,
                        inputs,
                        mode: Mode::Checked,
                    };
                    let (out, _) = server
                        .execute(&tenant, req)
                        .map_err(|e| format!("client {c} ({tenant}, checked): {e}"))?;
                    validate(&out, "server checked run")
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect()
    });
    if let Some(e) = checked_errors.into_iter().next() {
        return Err(e);
    }

    let plan = server.plan_stats();
    let adm = server.admission_metrics();
    let global = server.global_stats();
    let tenant_rows = server
        .tenant_names()
        .into_iter()
        .map(|name| {
            let t = server.tenant_stats(&name).expect("tenant executed");
            TenantRow {
                tenant: name,
                runs: t.runs,
                num_allocs: t.stats.num_allocs,
                blocks_reused: t.stats.blocks_reused,
                arena_blocks_adopted: t.stats.arena_blocks_adopted,
                bytes_cross_tenant_scrubbed: t.stats.bytes_cross_tenant_scrubbed,
                bytes_zeroing_elided: t.stats.bytes_zeroing_elided,
            }
        })
        .collect();
    Ok(ServerBenchRow {
        benchmark: spec.benchmark.to_string(),
        dataset: case.dataset.clone(),
        clients,
        tenants,
        runs: memory_runs,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: memory_runs as f64 / wall.as_secs_f64().max(1e-9),
        plan_builds: plan.builds,
        distinct_plans,
        plan_cache_hits: plan.cache_hits,
        stampedes_coalesced: plan.stampedes_coalesced,
        admitted: adm.admitted,
        rejected: adm.rejected,
        queued: adm.queued,
        peak_queue_depth: adm.peak_queue_depth,
        peak_in_flight: adm.peak_in_flight,
        avg_queue_wait_ms: adm.avg_queue_wait().as_secs_f64() * 1e3,
        arena_blocks_adopted: global.stats.arena_blocks_adopted,
        bytes_cross_tenant_scrubbed: global.stats.bytes_cross_tenant_scrubbed,
        tenant_peak_max_bytes: global.stats.peak_bytes_live,
        arena_peak_bytes_live: global.arena_peak_bytes_live,
        checked_diagnostics: global.stats.diagnostics.len() as u64
            + global.stats.diagnostics_suppressed,
        tenant_rows,
    })
}

/// [`measure_server_table`] over the given tables, with the acceptance
/// invariants asserted per row: plan builds equal the distinct request
/// keys (compile once, execute everywhere) and the checked phase stayed
/// diagnostic-free across tenant boundaries.
pub fn run_server_bench(
    specs: &[TableSpec],
    mode: RunMode,
    clients: usize,
    tenants: usize,
) -> Result<Vec<ServerBenchRow>, String> {
    specs
        .iter()
        .map(|spec| {
            let row = measure_server_table(spec, mode, clients, tenants)?;
            if row.plan_builds != row.distinct_plans {
                return Err(format!(
                    "{}: plan builds ({}) != distinct (program, options) pairs ({})",
                    row.benchmark, row.plan_builds, row.distinct_plans
                ));
            }
            if row.checked_diagnostics != 0 {
                return Err(format!(
                    "{}: {} cross-tenant checked-mode diagnostics (expected none)",
                    row.benchmark, row.checked_diagnostics
                ));
            }
            Ok(row)
        })
        .collect()
}

/// Render the server sweep as text: one throughput/cache/admission line
/// per table, then the per-tenant mechanism rows.
pub fn render_server(rows: &[ServerBenchRow]) -> String {
    let mut s =
        String::from("SERVER — multi-tenant throughput (shared plan cache, admission control)\n");
    if let Some(r) = rows.first() {
        s.push_str(&format!(
            "{} clients round-robin over {} tenants per table\n",
            r.clients, r.tenants
        ));
    }
    s.push_str(&format!(
        "{:<14} {:<10} {:>6} {:>10} {:>7}/{:<7} {:>5} {:>9} {:>6} {:>7} {:>9}\n",
        "Benchmark",
        "Dataset",
        "runs",
        "req/s",
        "builds",
        "distinct",
        "hits",
        "coalesced",
        "queued",
        "peak q",
        "wait ms"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<14} {:<10} {:>6} {:>10.1} {:>7}/{:<7} {:>5} {:>9} {:>6} {:>7} {:>9.3}\n",
            r.benchmark,
            r.dataset,
            r.runs,
            r.throughput_rps,
            r.plan_builds,
            r.distinct_plans,
            r.plan_cache_hits,
            r.stampedes_coalesced,
            r.queued,
            r.peak_queue_depth,
            r.avg_queue_wait_ms
        ));
        s.push_str(&format!(
            "  {:<12} peak live: tenant max {:>12} B | arena high-water {:>12} B\n",
            r.benchmark, r.tenant_peak_max_bytes, r.arena_peak_bytes_live
        ));
        for t in &r.tenant_rows {
            s.push_str(&format!(
                "  {:<12} {:<10} runs {:>4} | allocs {:>6} | reused {:>6} | arena adopted {:>5} | scrubbed {:>10} B | zeroing elided {:>10} B\n",
                r.benchmark,
                t.tenant,
                t.runs,
                t.num_allocs,
                t.blocks_reused,
                t.arena_blocks_adopted,
                t.bytes_cross_tenant_scrubbed,
                t.bytes_zeroing_elided
            ));
        }
    }
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable results for CI trend tracking (`tables --json`):
/// per-table timing rows plus the mechanism and plan-cache counters, and
/// — when the `--server` sweep ran — one server row per table with plan
/// cache, admission queue, and arena counters. All values are finite, so
/// the hand-rolled formatting is valid JSON.
pub fn render_json(results: &[(TableSpec, Vec<Measurement>)], server: &[ServerBenchRow]) -> String {
    let mut s = String::from("{\n  \"tables\": [\n");
    for (ti, (spec, rows)) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"number\": {}, \"title\": \"{}\", \"benchmark\": \"{}\", \"rows\": [\n",
            spec.number,
            json_escape(spec.title),
            json_escape(spec.benchmark)
        ));
        for (ri, m) in rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"dataset\": \"{}\", \"threads\": {}, \"reference_ms\": {:.6}, \
                 \"unopt_ms\": {:.6}, \
                 \"opt_ms\": {:.6}, \"unopt_rel\": {:.4}, \"opt_rel\": {:.4}, \
                 \"impact\": {:.4}, \"variants\": {{",
                json_escape(&m.dataset),
                m.threads,
                m.reference.as_secs_f64() * 1e3,
                m.unopt.as_secs_f64() * 1e3,
                m.opt.as_secs_f64() * 1e3,
                m.unopt_rel(),
                m.opt_rel(),
                m.impact()
            ));
            for (vi, (label, st, pl, passes)) in [
                ("unopt", &m.unopt_stats, &m.unopt_plan, &m.unopt_passes),
                ("opt", &m.opt_stats, &m.opt_plan, &m.opt_passes),
            ]
            .iter()
            .enumerate()
            {
                s.push_str(&format!("\"{label}\": {{"));
                for (k, v) in st.counters() {
                    s.push_str(&format!("\"{k}\": {v}, "));
                }
                s.push_str(&format!(
                    "\"plan_builds\": {}, \"plan_cache_hits\": {}, \
                     \"stampedes_coalesced\": {}, \
                     \"plan_build_ms\": {:.6}, \"passes\": [",
                    pl.builds,
                    pl.cache_hits,
                    pl.stampedes_coalesced,
                    pl.build_time.as_secs_f64() * 1e3
                ));
                for (pi, p) in passes.iter().enumerate() {
                    s.push_str(&format!(
                        "{{\"name\": \"{}\", \"ms\": {:.6}, \"stms_before\": {}, \
                         \"stms_after\": {}, \"remarks\": {}}}",
                        json_escape(p.name),
                        p.time.as_secs_f64() * 1e3,
                        p.before.stms,
                        p.after.stms,
                        p.remarks
                    ));
                    if pi + 1 < passes.len() {
                        s.push_str(", ");
                    }
                }
                s.push_str("]}");
                if vi == 0 {
                    s.push_str(", ");
                }
            }
            s.push_str("}}");
            s.push_str(if ri + 1 < rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("    ]}");
        s.push_str(if ti + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"server\": [\n");
    for (ri, r) in server.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"dataset\": \"{}\", \"clients\": {}, \
             \"tenants\": {}, \"runs\": {}, \"wall_ms\": {:.6}, \
             \"throughput_rps\": {:.3}, \"plan_builds\": {}, \
             \"distinct_plans\": {}, \"plan_cache_hits\": {}, \
             \"stampedes_coalesced\": {}, \"admitted\": {}, \"rejected\": {}, \
             \"queued\": {}, \"peak_queue_depth\": {}, \"peak_in_flight\": {}, \
             \"avg_queue_wait_ms\": {:.6}, \"arena_blocks_adopted\": {}, \
             \"bytes_cross_tenant_scrubbed\": {}, \"tenant_peak_max_bytes\": {}, \
             \"arena_peak_bytes_live\": {}, \"checked_diagnostics\": {}, \
             \"tenant_rows\": [",
            json_escape(&r.benchmark),
            json_escape(&r.dataset),
            r.clients,
            r.tenants,
            r.runs,
            r.wall_ms,
            r.throughput_rps,
            r.plan_builds,
            r.distinct_plans,
            r.plan_cache_hits,
            r.stampedes_coalesced,
            r.admitted,
            r.rejected,
            r.queued,
            r.peak_queue_depth,
            r.peak_in_flight,
            r.avg_queue_wait_ms,
            r.arena_blocks_adopted,
            r.bytes_cross_tenant_scrubbed,
            r.tenant_peak_max_bytes,
            r.arena_peak_bytes_live,
            r.checked_diagnostics
        ));
        for (ti, t) in r.tenant_rows.iter().enumerate() {
            s.push_str(&format!(
                "{{\"tenant\": \"{}\", \"runs\": {}, \"num_allocs\": {}, \
                 \"blocks_reused\": {}, \"arena_blocks_adopted\": {}, \
                 \"bytes_cross_tenant_scrubbed\": {}, \"bytes_zeroing_elided\": {}}}",
                json_escape(&t.tenant),
                t.runs,
                t.num_allocs,
                t.blocks_reused,
                t.arena_blocks_adopted,
                t.bytes_cross_tenant_scrubbed,
                t.bytes_zeroing_elided
            ));
            if ti + 1 < r.tenant_rows.len() {
                s.push_str(", ");
            }
        }
        s.push_str("]}");
        s.push_str(if ri + 1 < server.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Run one table's cases under the checked-mode sanitizer instead of
/// measuring them (the `tables --check` path): each optimized case runs
/// twice through one session (the second run exercises recycled stale
/// blocks), with every short-circuit decision concretely cross-checked.
/// Returns the rendered report and the total number of findings.
pub fn check_table(spec: &TableSpec, mode: RunMode) -> Result<(String, u64), String> {
    let cases = table_cases(spec.benchmark, mode != RunMode::Full)?;
    let mut s = format!("CHECK {} — {}\n", roman(spec.number), spec.title);
    let mut findings = 0u64;
    for case in &cases {
        let stats = case.validate_checked();
        let n = stats.diagnostics.len() as u64 + stats.diagnostics_suppressed;
        findings += n;
        s.push_str(&format!(
            "  {:<10} {:>12} cells checked | {:>4} circuit checks verified | {} diagnostics\n",
            case.dataset, stats.cells_checked, stats.circuits_verified, n
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

    #[test]
    fn json_rendering_is_balanced_and_carries_plan_counters() {
        use std::time::Duration;
        let plan = arraymem_exec::PlanStats {
            builds: 1,
            cache_hits: 41,
            build_time: Duration::from_micros(1500),
            stampedes_coalesced: 0,
        };
        let m = Measurement {
            name: "nw".into(),
            dataset: "256\"x\\2".into(), // exercises string escaping
            threads: 4,
            reference: Duration::from_millis(10),
            unopt: Duration::from_millis(8),
            opt: Duration::from_millis(4),
            unopt_stats: Default::default(),
            opt_stats: Default::default(),
            unopt_plan: plan,
            opt_plan: plan,
            unopt_passes: vec![],
            opt_passes: vec![arraymem_core::PassRun {
                name: "short_circuit",
                time: Duration::from_micros(250),
                before: Default::default(),
                after: Default::default(),
                remarks: 3,
            }],
        };
        let spec = TableSpec {
            number: 1,
            title: "NW performance",
            benchmark: "nw",
            paper_runs: 1000,
        };
        let server_row = ServerBenchRow {
            benchmark: "nw".into(),
            dataset: "256".into(),
            clients: 16,
            tenants: 4,
            runs: 160,
            wall_ms: 12.5,
            throughput_rps: 12800.0,
            plan_builds: 2,
            distinct_plans: 2,
            plan_cache_hits: 174,
            stampedes_coalesced: 3,
            admitted: 176,
            rejected: 0,
            queued: 90,
            peak_queue_depth: 11,
            peak_in_flight: 4,
            avg_queue_wait_ms: 0.25,
            arena_blocks_adopted: 40,
            bytes_cross_tenant_scrubbed: 4096,
            tenant_peak_max_bytes: 8192,
            arena_peak_bytes_live: 12288,
            checked_diagnostics: 0,
            tenant_rows: vec![TenantRow {
                tenant: "tenant-0".into(),
                runs: 44,
                num_allocs: 88,
                blocks_reused: 80,
                arena_blocks_adopted: 10,
                bytes_cross_tenant_scrubbed: 1024,
                bytes_zeroing_elided: 2048,
            }],
        };
        let json = render_json(&[(spec, vec![m])], &[server_row]);
        // Structurally valid: every brace/bracket closes, strings escaped.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON:\n{json}");
        }
        assert_eq!(depth, 0, "unbalanced JSON:\n{json}");
        assert!(!in_str, "unterminated string:\n{json}");
        assert!(json.contains("\"plan_cache_hits\": 41"), "{json}");
        assert!(json.contains("\"plan_builds\": 1"), "{json}");
        assert!(json.contains("\"threads\": 4"), "{json}");
        assert!(json.contains("\"maps_parallel_in_place\": 0"), "{json}");
        assert!(json.contains("\"par_chunks\": 0"), "{json}");
        assert!(json.contains("\"par_chunks_stolen\": 0"), "{json}");
        assert!(json.contains("\"par_workers_engaged\": 0"), "{json}");
        assert!(json.contains("\"par_workers_offered\": 0"), "{json}");
        assert!(json.contains("\"peak_bytes_live\": 0"), "{json}");
        assert!(json.contains("\"blocks_merged\": 0"), "{json}");
        assert!(json.contains("\"carried_releases\": 0"), "{json}");
        assert!(json.contains("\"color_slab_hits\": 0"), "{json}");
        assert!(json.contains("256\\\"x\\\\2"), "{json}");
        assert!(json.contains("\"passes\": []"), "{json}");
        assert!(
            json.contains("\"name\": \"short_circuit\"") && json.contains("\"remarks\": 3"),
            "{json}"
        );
        // The server sweep rides along with its queue + arena counters.
        assert!(json.contains("\"server\": ["), "{json}");
        assert!(json.contains("\"clients\": 16"), "{json}");
        assert!(json.contains("\"distinct_plans\": 2"), "{json}");
        assert!(json.contains("\"stampedes_coalesced\": 3"), "{json}");
        assert!(json.contains("\"peak_queue_depth\": 11"), "{json}");
        assert!(json.contains("\"tenant_peak_max_bytes\": 8192"), "{json}");
        assert!(json.contains("\"arena_peak_bytes_live\": 12288"), "{json}");
        assert!(json.contains("\"avg_queue_wait_ms\": 0.250000"), "{json}");
        assert!(
            json.contains("\"bytes_cross_tenant_scrubbed\": 4096"),
            "{json}"
        );
        assert!(json.contains("\"tenant\": \"tenant-0\""), "{json}");
    }
}
