//! The cold path of one program: `compile`, then `prepare_full` on a
//! fresh `PlanCache`, then warm `prepare_full` hits — timed from outside
//! and decomposed by what the calls return (`PassRun.time`,
//! `PrepareOutcome.build_time`). Shared by the batch workloads (where it
//! rides along each round) and `compile_cold` (where it is the
//! operation).

use crate::metrics::Metrics;
use crate::run::{ms, traced_round, us};
use crate::sample::{median, summed, Reading};
use crate::span::Tracer;
use arraymem_core::{compile, Compiled, Options, RemarkKind};
use arraymem_exec::{ExecPlan, KernelRegistry, PlanCache};
use arraymem_ir::Program;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm `prepare_full` calls averaged into one `exec.cache.hit.us` sample.
const HITS_PER_SAMPLE: u32 = 8;

#[derive(Default)]
pub struct ColdSamples {
    /// Caller wall of `compile`.
    pub compile_ms: Vec<f64>,
    pub pass_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Caller wall of `compile` + cold `prepare_full`.
    pub wall_ms: Vec<f64>,
    /// What the two calls report about themselves:
    /// `CompileReport.total_time` + `PrepareOutcome.build_time`.
    pub self_ms: Vec<f64>,
    pub lower_ms: Vec<f64>,
    pub hit_us: Vec<f64>,
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One cold compile + prepare + warm hits, under the tracer's innermost
/// open span. Panics if the program does not compile: the workloads are
/// chosen so that none fails, and a benchmark that cannot build its
/// subject has nothing to report.
pub fn cold_compile(
    tr: &mut Tracer,
    name: &str,
    program: &Program,
    opts: &Options,
    kernels: &KernelRegistry,
    s: &mut ColdSamples,
) -> (Compiled, Arc<ExecPlan>) {
    let sp = tr.open("compile");
    let t = Instant::now();
    let compiled = compile(program, opts).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let compile_t = t.elapsed();
    tr.close(sp);
    s.compile_ms.push(ms(compile_t));
    for p in &compiled.compile_report.passes {
        s.pass_ms.entry(p.name).or_default().push(ms(p.time));
        let span_name = PASSES
            .iter()
            .find(|(pass, _, _)| *pass == p.name)
            .map_or("pass.other", |(_, span, _)| span);
        tr.synthetic(sp, span_name, ns(p.time));
    }

    let cache = PlanCache::new(1);
    let prepare = || {
        cache
            .prepare_full(
                &compiled.program,
                kernels,
                &[],
                &compiled.report.merges,
                &compiled.report.par_safety,
            )
            .unwrap_or_else(|e| panic!("{name}: prepare failed: {e}"))
    };
    let sp = tr.open("prepare");
    let t = Instant::now();
    let (plan, outcome) = prepare();
    let prepare_t = t.elapsed();
    tr.close(sp);
    tr.synthetic(sp, "lower", ns(outcome.build_time));
    s.wall_ms.push(ms(compile_t + prepare_t));
    s.self_ms
        .push(ms(compiled.compile_report.total_time + outcome.build_time));
    s.lower_ms.push(ms(outcome.build_time));

    let sp = tr.open("cache_hit");
    let t = Instant::now();
    for _ in 0..HITS_PER_SAMPLE {
        black_box(prepare());
    }
    let hit_t = t.elapsed() / HITS_PER_SAMPLE;
    tr.close(sp);
    s.hit_us.push(us(hit_t));
    (compiled, plan)
}

/// Pipeline stage, its span name, its metric.
const PASSES: [(&str, &str, &str); 8] = [
    ("introduce", "pass.introduce", "core.pass.introduce.ms"),
    ("antiunify", "pass.antiunify", "core.pass.antiunify.ms"),
    ("hoist", "pass.hoist", "core.pass.hoist.ms"),
    (
        "short_circuit",
        "pass.short_circuit",
        "core.pass.short_circuit.ms",
    ),
    ("merge", "pass.merge", "core.pass.merge.ms"),
    ("cleanup", "pass.cleanup", "core.pass.cleanup.ms"),
    ("par_safety", "pass.par_safety", "core.pass.par_safety.ms"),
    ("release", "pass.release", "core.pass.release.ms"),
];

/// The `core.*`, `compile.cold.ms` and `exec.plan|cache.*` metrics of a
/// set of optimized compiles: timings summed over the units' medians,
/// counts summed over one representative compile of each.
pub fn emit_optimized<'a>(
    m: &mut Metrics,
    units: impl Iterator<Item = (&'a ColdSamples, &'a Compiled, usize)> + Clone,
) {
    let samples = || units.clone().map(|(s, _, _)| s);
    m.set("core.compile.ms", summed(samples(), |s| &s.compile_ms));
    for (pass, _, metric) in PASSES {
        // A stage a program never runs contributes no series.
        m.set(
            metric,
            summed(samples(), |s| s.pass_ms.get(pass).map_or(&[][..], |v| v)),
        );
    }
    m.set("compile.cold.ms", summed(samples(), |s| &s.wall_ms));
    m.set("exec.plan.lower.ms", summed(samples(), |s| &s.lower_ms));
    m.set("exec.cache.hit.us", summed(samples(), |s| &s.hit_us));
    m.exact(
        "exec.plan.instrs",
        units.clone().map(|(_, _, n)| n as f64).sum(),
    );

    let count = |pred: &dyn Fn(&RemarkKind) -> bool| -> f64 {
        units
            .clone()
            .map(|(_, c, _)| {
                c.compile_report
                    .remarks
                    .iter()
                    .filter(|r| pred(&r.kind))
                    .count()
            })
            .sum::<usize>() as f64
    };
    m.exact(
        "core.circuits.elided",
        count(&|k| matches!(k, RemarkKind::CircuitElided)),
    );
    m.exact(
        "core.circuits.rejected",
        count(&|k| matches!(k, RemarkKind::CircuitRejected(_))),
    );
    m.exact(
        "core.merge.blocks_merged",
        count(&|k| matches!(k, RemarkKind::BlocksMerged)),
    );
    m.exact(
        "core.merge.rejected",
        count(&|k| matches!(k, RemarkKind::MergeRejected(_))),
    );
    m.exact(
        "core.par.proven",
        count(&|k| matches!(k, RemarkKind::MapParallelSafe)),
    );
    m.exact(
        "core.par.rejected",
        count(&|k| matches!(k, RemarkKind::MapParRejected(_))),
    );
    m.exact(
        "core.ir_stms_after",
        units
            .clone()
            .filter_map(|(_, c, _)| c.compile_report.passes.last())
            .map(|p| p.after.stms as f64)
            .sum(),
    );
}

/// `trace.overhead_pct`: within a traced run, rounds alternate traced /
/// untraced as [`traced_round`] says; sample `i` of a series comes from
/// round `i % rounds_per_epoch` of epoch `i / rounds_per_epoch`. Rounds
/// `2k` and `2k + 1` form a pair, one traced and one not; per unit the
/// median of the pairs' differences (neighbours share the machine's
/// mood, so it is steadier than a difference of medians), summed over
/// the units, against Σ of the untraced medians.
pub fn trace_overhead_pct<'a, T: 'a>(
    units: impl IntoIterator<Item = &'a T>,
    series: impl Fn(&'a T) -> &'a [f64],
    rounds_per_epoch: usize,
) -> Option<f64> {
    let (mut extra, mut base) = (0.0, 0.0);
    for u in units {
        let (mut diffs, mut untraced) = (Vec::new(), Vec::new());
        for (k, pair) in series(u).chunks_exact(2).enumerate() {
            let i = 2 * k;
            let (on, off) = if traced_round(i / rounds_per_epoch, i % rounds_per_epoch) {
                (pair[0], pair[1])
            } else {
                (pair[1], pair[0])
            };
            diffs.push(on - off);
            untraced.push(off);
        }
        if diffs.is_empty() {
            return None;
        }
        extra += median(&diffs);
        base += median(&untraced);
    }
    (base > 0.0).then(|| extra / base * 100.0)
}

/// `trace.overhead_pct` and `trace.attribution_gap_pct` of a traced run
/// whose attribution is rooted at the spans called `root`; `overhead` as
/// [`trace_overhead_pct`] gives it, `n` the rounds or requests behind it.
pub fn emit_trace(m: &mut Metrics, tr: &Tracer, root: &str, overhead: Option<f64>, n: usize) {
    if let Some(pct) = overhead {
        m.set("trace.overhead_pct", Reading::derived(pct, n));
    }
    if let Some(gap) = crate::report::attribution(tr.spans(), root).get(root) {
        m.set(
            "trace.attribution_gap_pct",
            Reading::derived(*gap, n.div_ceil(2)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two epochs of two rounds: the traced rounds are 0 of the first
    /// epoch and 1 of the second.
    #[test]
    fn overhead_pairs_rounds_by_the_flipping_parity() {
        let units = [
            vec![11.0, 10.0, 10.0, 11.0],
            vec![22.0, 20.0, 20.0, 22.0, 99.0],
        ];
        let pct = trace_overhead_pct(&units, |u| u, 2).unwrap();
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
        assert_eq!(trace_overhead_pct(&[vec![5.0]], |u| u, 1), None);
    }
}
