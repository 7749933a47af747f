//! The metric registry: every name the benchmark prints, with its unit,
//! direction, how it repeats, and — for a per-layer metric — the
//! end-to-end metric it should move and on which workload. `BENCHMARK.json`
//! lists the same names (a unit test holds the two together); the
//! regression bounds live only there.

use crate::json::Json;
use crate::sample::Reading;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a metric repeats between two runs of one commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repeat {
    /// A timing, or a value derived from one: carries a spread.
    Noisy,
    /// A property of one steady-state run or one compile: identical in
    /// every run with the same seed, however long the run measures.
    /// `--compare` and `--check` require equality.
    Exact,
    /// Identical only when the amount of work is fixed (`--check` runs
    /// fixed request and rep counts); grows with `--seconds` otherwise.
    ExactAtFixedWork,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub repeat: Repeat,
    /// What the metric measures and, for a per-layer metric, which
    /// end-to-end metric it should move on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    repeat: Repeat,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        repeat,
        moves,
    }
}

use Better::{Higher, Lower};
use Repeat::{Exact, ExactAtFixedWork, Noisy};

pub const WORKLOADS: [(&str, &str); 5] = [
    ("dense_kernel", "few large maps (hotspot, lbm, optionpricing, locvolcalib): native kernels dominate the body; copy elision is the paper's headline; dispatch, alloc and download predict no change"),
    ("dense_blocked", "thousands of 16x16 blocked map instances over LMAD slices (nw, lud): per-instance set-up, alloc churn and result download dominate; same exec layer as dense_kernel used the opposite way"),
    ("irregular", "scalar pc-loop and gather/scatter (histogram, spmv, permutation): optimizer declines by design, so negative control for core and positive for VM dispatch"),
    ("compile_cold", "compile and lower only, nothing executed: 10 workload programs x 2 option sets, seeded fuzz programs and source files; run-time changes predict no change"),
    ("server_mixed", "closed loop of nproc clients over 4 tenants, 98% warm ~1 ms requests and 2% never-seen programs: per-request fixed costs dominate instead of the body"),
];

/// `BENCHMARK.json` as it was when this binary was built: the run length
/// and the regression bounds `--compare` judges by.
pub fn spec() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// The operation of a workload is one warm optimized `Session::run_plan`
/// (batch workloads), one cold `compile` + `PlanCache::prepare_full`
/// (`compile_cold`) or one client request (`server_mixed`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, Noisy, "case construction + compile + prepare + warm-ups + validation, before the timed section (median of 3 set-ups)"),
    m("wall_ms", "ms", Lower, Noisy, "caller wall of one operation: sum over the workload's programs of per-program medians; server_mixed: median client latency"),
    m("body_ms", "ms", Lower, Noisy, "the self-timed part of the same operations (Stats.total_time; compile_cold: CompileReport.total_time + lowering time): the paper's methodology, host transfers excluded"),
    m("throughput_ops", "1/s", Higher, Noisy, "operations completed per second of caller time, per epoch: the mean-based view of the same operations, so unlike the medians it moves with the slow ones (server_mixed: completed requests per second of wall over all clients, cold requests included)"),
    m("peak_rss_mb", "MB", Lower, Noisy, "high-water resident set of the process (VmHWM): what holding the workload costs a caller in memory"),
];

pub const PER_LAYER: &[MetricDef] = &[
    // workloads
    m("workloads.reference.ms", "ms", Lower, Noisy, "hand-written reference core time, summed: machine-speed canary; if it moves beyond 10% between run sets every timing comparison is unresolved"),
    m("workloads.opt_rel", "ratio", Higher, Noisy, "geomean of reference / optimized body (ROADMAP target >= 0.85) -> body_ms @ dense_*"),
    m("workloads.kernel_vs_reference", "ratio", Lower, Noisy, "exec.kernel.ms / reference -> workloads.opt_rel @ dense_blocked"),
    m("workloads.impact", "ratio", Higher, Noisy, "geomean of unoptimized / optimized body, the paper's Opt. Impact; no regression direction: faster copies lower it"),
    // symbolic / lmad
    m("symbolic.prove.us", "us", Lower, Noisy, "Env::prove_* over a fixed query set -> wall_ms @ compile_cold via core.pass.short_circuit.ms; nothing elsewhere"),
    m("lmad.non_overlap.us", "us", Lower, Noisy, "non_overlap over fixed NW/LUD/hotspot shapes + fixed random pairs -> wall_ms @ compile_cold; nothing elsewhere"),
    m("lmad.non_overlap.proved_share", "share", Higher, Exact, "share of that query set proved disjoint -> core.circuits.elided"),
    // ir / lang
    m("ir.build.us", "us", Lower, Noisy, "building the workload's IR programs through the builders -> setup_s"),
    m("ir.stms", "count", Lower, Exact, "statements in the workload's source programs"),
    m("lang.parse_elab.us", "us", Lower, Noisy, "lang::parse_program over the benchmark's source files -> wall_ms @ compile_cold"),
    m("lang.bytes", "B", Lower, Exact, "bytes of source text parsed"),
    // core
    m("core.compile.ms", "ms", Lower, Noisy, "cold compile(.., optimized), summed over programs -> wall_ms @ compile_cold; server.latency_cold.p50_us @ server_mixed"),
    m("core.compile_unopt.ms", "ms", Lower, Noisy, "cold compile(.., default), summed over programs -> wall_ms @ compile_cold"),
    m("core.pass.introduce.ms", "ms", Lower, Noisy, "PassRun.time of the stage (optimized compile) -> core.compile.ms"),
    m("core.pass.antiunify.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms"),
    m("core.pass.hoist.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms"),
    m("core.pass.short_circuit.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms (largest on lud, nw)"),
    m("core.pass.merge.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms"),
    m("core.pass.cleanup.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms"),
    m("core.pass.par_safety.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms"),
    m("core.pass.release.ms", "ms", Lower, Noisy, "PassRun.time -> core.compile.ms"),
    m("core.circuits.elided", "count", Higher, Exact, "CircuitElided remarks -> body_ms, exec.copy.bytes_elided @ dense_*; must stay 0 @ irregular"),
    m("core.circuits.rejected", "count", Lower, Exact, "CircuitRejected remarks"),
    m("core.merge.blocks_merged", "count", Higher, Exact, "BlocksMerged remarks -> exec.store.peak_live_bytes, peak_rss_mb @ dense_kernel"),
    m("core.merge.rejected", "count", Lower, Exact, "MergeRejected remarks"),
    m("core.par.proven", "count", Higher, Exact, "MapParallelSafe remarks -> exec.pool.par_speedup"),
    m("core.par.rejected", "count", Lower, Exact, "MapParRejected remarks"),
    m("core.ir_stms_after", "count", Lower, Exact, "statements after the last stage of the optimized compile -> exec.plan.instrs"),
    m("compile.cold.ms", "ms", Lower, Noisy, "cold compile(.., optimized) + cold prepare_full on a fresh cache, summed: what a first request pays -> wall_ms @ compile_cold; server.latency.p99_ms"),
    // exec::plan / exec::cache
    m("exec.plan.lower.ms", "ms", Lower, Noisy, "PrepareOutcome.build_time of the cold prepare -> compile.cold.ms"),
    m("exec.plan.instrs", "count", Lower, Exact, "top-level instructions of the optimized plans -> exec.vm.dispatch.ms"),
    m("exec.cache.hit.us", "us", Lower, Noisy, "warm prepare_full: program fingerprint + shard read -> wall_ms, throughput_ops @ server_mixed"),
    // exec::vm boundary
    m("exec.io.ms", "ms", Lower, Noisy, "run_plan wall - Stats.total_time, optimized: upload + download + release -> wall_ms @ dense_blocked, server_mixed; not body_ms anywhere"),
    m("exec.io_unopt.ms", "ms", Lower, Noisy, "same for the unoptimized variant"),
    m("exec.upload_probe.ms", "ms", Lower, Noisy, "cloning the inputs as load_param does, so download ~ io - probe"),
    m("exec.wall_unopt.ms", "ms", Lower, Noisy, "caller wall of the unoptimized variant: against wall_ms, what short-circuiting buys end to end (on nw the download eats most of the body's gain)"),
    // exec::vm body
    m("exec.vm.body_unopt.ms", "ms", Lower, Noisy, "Stats.total_time, Options::default(): the baseline of the paper's claim"),
    m("exec.kernel.ms", "ms", Lower, Noisy, "Stats.kernel_time, optimized -> body_ms @ dense_kernel"),
    m("exec.copy.ms", "ms", Lower, Noisy, "Stats.copy_time, optimized"),
    m("exec.vm.dispatch.ms", "ms", Lower, Noisy, "body - kernel - copy: pc loop, alloc/release, view construction -> body_ms @ irregular, dense_blocked; ~0 @ dense_kernel"),
    m("exec.kernel_unopt.ms", "ms", Lower, Noisy, "Stats.kernel_time, unoptimized"),
    m("exec.copy_unopt.ms", "ms", Lower, Noisy, "Stats.copy_time, unoptimized -> exec.vm.body_unopt.ms @ dense_kernel only"),
    m("exec.vm.dispatch_unopt.ms", "ms", Lower, Noisy, "body - kernel - copy, unoptimized"),
    m("exec.vm.scalar_loop.ns_per_iter", "ns/iter", Lower, Noisy, "histogram body / items (ROADMAP target <= 50 ns per instruction) -> body_ms @ irregular; 0 where histogram is absent"),
    m("exec.kernel.launches", "count", Lower, Exact, "Stats.kernel_launches, optimized"),
    m("exec.copy.bytes", "B", Lower, Exact, "Stats.bytes_copied, optimized"),
    m("exec.copy.bytes_unopt", "B", Lower, Exact, "Stats.bytes_copied, unoptimized"),
    m("exec.copy.count", "count", Lower, Exact, "Stats.num_copies, optimized"),
    m("exec.copy.bytes_elided", "B", Higher, Exact, "Stats.bytes_elided, optimized -> exec.copy_unopt.ms - exec.copy.ms"),
    m("exec.copy.gbps", "GB/s", Higher, Noisy, "unoptimized bytes copied / copy time"),
    // exec::store
    m("exec.store.allocs", "count", Lower, Exact, "Stats.num_allocs, optimized -> exec.vm.dispatch.ms @ dense_blocked"),
    m("exec.store.blocks_reused", "count", Higher, Exact, "allocations served from the free lists"),
    m("exec.store.bytes_zeroing_elided", "B", Higher, Exact, "zero-fill skipped on recycled blocks"),
    m("exec.store.carried_releases", "count", Higher, Exact, "per-iteration releases of loop-carried blocks -> exec.store.peak_live_bytes @ dense_kernel"),
    m("exec.store.color_slab_hits", "count", Higher, Exact, "colored allocations served from their slab"),
    m("exec.store.peak_live_bytes", "B", Lower, Exact, "sum of optimized Stats.peak_bytes_live: the quantity the paper's memory optimizations reduce -> peak_rss_mb @ dense_kernel"),
    m("exec.store.peak_live_bytes_unopt", "B", Lower, Exact, "same, unoptimized"),
    m("exec.store.alloc_release.ns", "ns", Lower, Noisy, "warm MemStore alloc + release round trip -> exec.vm.dispatch.ms @ dense_blocked"),
    // exec::pool
    m("exec.pool.dispatch.us", "us", Lower, Noisy, "parallel_for(nproc, n, noop): cost of one dispatch + join; no end-to-end metric today (e2e runs at 1 thread)"),
    m("exec.pool.par_speedup", "ratio", Higher, Noisy, "optimized body at 1 thread / at nproc threads; noisy on a shared box"),
    m("exec.pool.chunks", "count", Lower, Noisy, "work-stealing chunks claimed in the nproc-thread run"),
    m("exec.pool.chunks_stolen", "count", Higher, Noisy, "chunks claimed by a worker other than the caller"),
    m("exec.pool.workers_engaged_share", "share", Higher, Noisy, "workers engaged / offered over that run's dispatches"),
    // exec checked mode
    m("exec.checked.body.ms", "ms", Lower, Noisy, "Mode::Checked body on the quick datasets; must leave body_ms untouched everywhere"),
    m("exec.checked.cells", "count", Lower, Exact, "shadow cells marked or inspected in that run"),
    m("exec.checked.circuits_verified", "count", Higher, Exact, "short-circuit obligations re-proved concretely"),
    // server
    m("server.latency.p99_ms", "ms", Lower, Noisy, "client latency, p99: a typical cold request, since 2% are cold"),
    m("server.request.overhead.us", "us", Lower, Noisy, "warm latency - Stats.total_time, median: admission, fingerprint, tenant lock, upload, download, merge, arena -> wall_ms, throughput_ops @ server_mixed"),
    m("server.latency_warm.p50_us", "us", Lower, Noisy, "median latency of warm requests"),
    m("server.latency_cold.p50_us", "us", Lower, Noisy, "median latency of compile-first requests -> server.latency.p99_ms"),
    m("server.queue_wait.avg_us", "us", Lower, Noisy, "AdmissionMetrics average queue wait"),
    m("server.admitted", "count", Higher, ExactAtFixedWork, "requests admitted"),
    m("server.rejected", "count", Lower, ExactAtFixedWork, "requests turned away (Overloaded); counted as failed"),
    m("server.plan.builds", "count", Lower, ExactAtFixedWork, "plans lowered; must equal the distinct keys issued"),
    m("server.plan.hits", "count", Higher, ExactAtFixedWork, "prepares answered from the shared cache"),
    m("server.queued", "count", Lower, Noisy, "requests that waited for a permit (interleaving-dependent)"),
    m("server.peak_in_flight", "count", Lower, Noisy, "interleaving-dependent"),
    m("server.peak_queue_depth", "count", Lower, Noisy, "interleaving-dependent"),
    m("server.plan.coalesced", "count", Lower, Noisy, "stampede waiters (interleaving-dependent)"),
    m("server.arena.adopted_same", "count", Higher, Noisy, "blocks re-adopted by the donating tenant (interleaving-dependent)"),
    m("server.arena.adopted_cross", "count", Lower, Noisy, "blocks adopted across tenants, each scrubbed (interleaving-dependent)"),
    m("server.arena.bytes_scrubbed", "B", Lower, Noisy, "bytes zeroed on cross-tenant adoption (interleaving-dependent)"),
    m("server.arena.peak_live_bytes", "B", Lower, Noisy, "arena high-water across tenants (interleaving-dependent)"),
    // the benchmark itself
    m("trace.overhead_pct", "%", Lower, Noisy, "traced vs untraced wall_ms within one run; must stay below 3"),
    m("trace.attribution_gap_pct", "%", Lower, Noisy, "share of the traced caller wall no named layer accounts for; must stay below 2"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named readings of one run, in registry order when printed.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Reading>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, r: Reading) {
        debug_assert!(find(name).is_some(), "unregistered metric {name}");
        self.0.insert(name, r);
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Reading::exact(value));
    }

    pub fn get(&self, name: &str) -> Reading {
        self.0.get(name).copied().unwrap_or(Reading::exact(0.0))
    }

    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
            assert!(!d.moves.is_empty(), "{}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` and the registry name the same workloads and
    /// metrics with the same units and directions, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let spec = spec();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let registry = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), registry(END_TO_END));
        assert_eq!(listed("per_layer"), registry(PER_LAYER));
        let names: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|(n, _)| n));
        for e in spec.get("end_to_end").unwrap().as_arr() {
            let b = e.get("bound").and_then(Json::as_f64).unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
    }
}
