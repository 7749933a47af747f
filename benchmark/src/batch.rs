//! The three batch workloads (`dense_kernel`, `dense_blocked`,
//! `irregular`): one `Session` per (program, variant) driven from one
//! thread at VM `threads = 1`.
//!
//! A round visits every program once: reference, then the unoptimized
//! and the optimized variant, so drift hits all three alike. Each
//! variant's visit is a cold `compile` + cold `PlanCache::prepare_full`
//! on a fresh cache + warm `prepare_full` hits (nothing of which the
//! session sees), then one warm `Session::run_plan` — the operation the
//! end-to-end metrics describe. Every output of every round is checked
//! against the hand-written reference's.

use crate::catalog::{ProgramSpec, Size};
use crate::cold::{cold_compile, emit_optimized, emit_trace, ns, trace_overhead_pct, ColdSamples};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::run::{
    ms, outputs_match, traced_round, us, Cfg, Epochs, Outcome, Tally, ROUNDS_PER_EPOCH,
};
use crate::sample::{geomean, median, summed, Reading};
use crate::span::Tracer;
use arraymem_core::{compile, Compiled, Options};
use arraymem_exec::{Mode, OutputValue, PlanHandle, Session, Stats};
use arraymem_workloads::Case;
use std::hint::black_box;
use std::time::Instant;

/// Discarded runs per variant in each set-up: afterwards the plan is
/// cached and the free lists and colour slabs are filled.
const WARM_UPS: usize = 2;
/// Runs at `nproc` threads behind `exec.pool.par_speedup`.
const PAR_RUNS: usize = 3;

const UNOPT: usize = 0;
const OPT: usize = 1;
const LABELS: [&str; 2] = ["unopt", "opt"];

/// One variant's samples, accumulated over every epoch.
#[derive(Default)]
struct VariantSamples {
    cold: ColdSamples,
    wall_ms: Vec<f64>,
    body_ms: Vec<f64>,
    kernel_ms: Vec<f64>,
    copy_ms: Vec<f64>,
    dispatch_ms: Vec<f64>,
    io_ms: Vec<f64>,
    /// Stats of the most recent run.
    last: Stats,
}

#[derive(Default)]
struct Samples {
    reference_ms: Vec<f64>,
    upload_ms: Vec<f64>,
    ir_build_us: Vec<f64>,
    variants: [VariantSamples; 2],
}

fn opt(s: &Samples) -> &VariantSamples {
    &s.variants[OPT]
}

fn unopt(s: &Samples) -> &VariantSamples {
    &s.variants[UNOPT]
}

/// What one epoch's set-up builds for a (program, variant).
struct Variant {
    opts: Options,
    compiled: Compiled,
    session: Session,
    handle: PlanHandle,
    instrs: usize,
}

struct Prepared {
    name: String,
    case: Case,
    /// The reference's outputs: the oracle for both variants.
    expect: Vec<OutputValue>,
    variants: [Variant; 2],
    loop_items: u64,
}

fn set_up(spec: &ProgramSpec, size: Size, s: &mut Samples, tally: &mut Tally) -> Prepared {
    let t = Instant::now();
    black_box((spec.ir)());
    s.ir_build_us.push(us(t.elapsed()));
    let case = (spec.build)(size);
    let name = format!("{}/{}", case.name, case.dataset);
    let (_, expect) = (case.reference)(&case.inputs);
    let variants = [UNOPT, OPT].map(|which| {
        let label = LABELS[which];
        let base = if which == OPT {
            Options::optimized()
        } else {
            Options::default()
        };
        let opts = base.with_env(case.env.clone());
        let compiled = compile(&case.program, &opts)
            .unwrap_or_else(|e| panic!("{name}: {label} compile failed: {e}"));
        let mut session = Session::new();
        let handle = session
            .prepare_full(
                &compiled.program,
                &case.kernels,
                &[],
                &compiled.report.merges,
                &compiled.report.par_safety,
            )
            .unwrap_or_else(|e| panic!("{name}: {label} prepare failed: {e}"));
        let instrs = session.plan(handle).num_instrs();
        for warm_up in 0..WARM_UPS {
            let (out, _) = session
                .run_plan(handle, &case.inputs, &case.kernels, Mode::Memory, 1)
                .unwrap_or_else(|e| panic!("{name}: {label} run failed: {e}"));
            if warm_up == 0 {
                tally.check(outputs_match(&expect, &out, case.tol), || {
                    format!("{name}: {label} output differs from the reference (set-up)")
                });
            }
        }
        Variant {
            opts,
            compiled,
            session,
            handle,
            instrs,
        }
    });
    Prepared {
        name,
        case,
        expect,
        variants,
        loop_items: match size {
            Size::Full => spec.loop_items.0,
            Size::Quick => spec.loop_items.1,
        },
    }
}

/// One variant's visit in a round; see the module docs.
fn visit(
    tr: &mut Tracer,
    p: &mut Prepared,
    which: usize,
    s: &mut VariantSamples,
    tally: &mut Tally,
) {
    let (name, case, label) = (&p.name, &p.case, LABELS[which]);
    let v = &mut p.variants[which];
    let sp_variant = tr.open(label);

    cold_compile(tr, name, &case.program, &v.opts, &case.kernels, &mut s.cold);

    let sp = tr.open("run");
    let t = Instant::now();
    let (out, stats) = v
        .session
        .run_plan(v.handle, &case.inputs, &case.kernels, Mode::Memory, 1)
        .unwrap_or_else(|e| panic!("{name}: {label} run failed: {e}"));
    let wall = t.elapsed();
    tr.close(sp);
    let body = stats.total_time;
    let io = wall.saturating_sub(body);
    let dispatch = body.saturating_sub(stats.kernel_time + stats.copy_time);
    tr.synthetic(sp, "io", ns(io));
    let sp_body = tr.synthetic(sp, "body", ns(body));
    tr.synthetic(sp_body, "kernel", ns(stats.kernel_time));
    tr.synthetic(sp_body, "copy", ns(stats.copy_time));
    tr.synthetic(sp_body, "dispatch", ns(dispatch));
    tr.close(sp_variant);

    s.wall_ms.push(ms(wall));
    s.body_ms.push(ms(body));
    s.kernel_ms.push(ms(stats.kernel_time));
    s.copy_ms.push(ms(stats.copy_time));
    s.dispatch_ms.push(ms(dispatch));
    s.io_ms.push(ms(io));
    tally.check(outputs_match(&p.expect, &out, case.tol), || {
        format!("{name}: {label} output differs from the reference")
    });
    s.last = stats;
}

fn round(tr: &mut Tracer, p: &mut Prepared, s: &mut Samples, tally: &mut Tally) {
    let sp_program = tr.open(p.name.clone());
    let sp = tr.open("reference");
    let (ref_t, out) = (p.case.reference)(&p.case.inputs);
    tr.close(sp);
    black_box(out);
    s.reference_ms.push(ms(ref_t));

    let t = Instant::now();
    black_box(p.case.inputs.to_vec());
    s.upload_ms.push(ms(t.elapsed()));

    for which in [UNOPT, OPT] {
        visit(tr, p, which, &mut s.variants[which], tally);
    }
    tr.close(sp_program);
}

pub fn run(specs: &[ProgramSpec], cfg: &Cfg) -> Outcome {
    let mut tally = Tally::default();
    let mut samples: Vec<Samples> = specs.iter().map(|_| Samples::default()).collect();
    let mut programs: Vec<Prepared> = Vec::new();
    let mut tr = Tracer::new(Instant::now());
    let mut epochs = Epochs::default();
    while epochs.more(cfg) {
        programs.clear(); // drop the previous epoch's stores before building the next
        epochs.set_up(|| {
            for (spec, s) in specs.iter().zip(&mut samples) {
                programs.push(set_up(spec, cfg.size, s, &mut tally));
            }
        });

        let t = Instant::now();
        let rounds = cfg.rounds_per_epoch(ROUNDS_PER_EPOCH);
        for round_no in 0..rounds {
            tr.on = cfg.trace && traced_round(epochs.done(), round_no);
            for (p, s) in programs.iter_mut().zip(&mut samples) {
                round(&mut tr, p, s, &mut tally);
            }
        }
        tr.on = false;
        let walls_ms: f64 = samples
            .iter()
            .flat_map(|s| opt(s).wall_ms.iter().rev().take(rounds))
            .sum();
        epochs.close(t.elapsed(), rounds * specs.len(), walls_ms / 1e3);
    }

    let mut m = Metrics::default();

    // End to end.
    epochs.emit(&mut m);
    m.set("wall_ms", summed(&samples, |s| &opt(s).wall_ms));
    m.set("body_ms", summed(&samples, |s| &opt(s).body_ms));

    // workloads
    m.set(
        "workloads.reference.ms",
        summed(&samples, |s| &s.reference_ms),
    );
    let rounds = samples.first().map_or(0, |s| s.reference_ms.len());
    let ratio = |num: &dyn Fn(&Samples) -> f64, den: &dyn Fn(&Samples) -> f64| {
        let per_program: Vec<f64> = samples.iter().map(|s| num(s) / den(s)).collect();
        Reading::derived(geomean(&per_program), rounds)
    };
    let med_ref = |s: &Samples| median(&s.reference_ms);
    let med_body = |s: &Samples| median(&opt(s).body_ms);
    m.set("workloads.opt_rel", ratio(&med_ref, &med_body));
    m.set(
        "workloads.impact",
        ratio(&|s| median(&unopt(s).body_ms), &med_body),
    );
    m.set(
        "workloads.kernel_vs_reference",
        ratio(&|s| median(&opt(s).kernel_ms), &med_ref),
    );

    // ir
    m.set("ir.build.us", summed(&samples, |s| &s.ir_build_us));
    m.exact(
        "ir.stms",
        programs
            .iter()
            .map(|p| arraymem_core::pipeline::ir_stats(&p.case.program).stms as f64)
            .sum(),
    );

    // core, exec::plan, exec::cache
    m.set(
        "core.compile_unopt.ms",
        summed(&samples, |s| &unopt(s).cold.compile_ms),
    );
    emit_optimized(
        &mut m,
        samples.iter().zip(&programs).map(|(s, p)| {
            (
                &opt(s).cold,
                &p.variants[OPT].compiled,
                p.variants[OPT].instrs,
            )
        }),
    );

    // exec::vm boundary and body
    m.set("exec.io.ms", summed(&samples, |s| &opt(s).io_ms));
    m.set("exec.io_unopt.ms", summed(&samples, |s| &unopt(s).io_ms));
    m.set("exec.upload_probe.ms", summed(&samples, |s| &s.upload_ms));
    m.set(
        "exec.wall_unopt.ms",
        summed(&samples, |s| &unopt(s).wall_ms),
    );
    m.set(
        "exec.vm.body_unopt.ms",
        summed(&samples, |s| &unopt(s).body_ms),
    );
    m.set("exec.kernel.ms", summed(&samples, |s| &opt(s).kernel_ms));
    m.set("exec.copy.ms", summed(&samples, |s| &opt(s).copy_ms));
    m.set(
        "exec.vm.dispatch.ms",
        summed(&samples, |s| &opt(s).dispatch_ms),
    );
    m.set(
        "exec.kernel_unopt.ms",
        summed(&samples, |s| &unopt(s).kernel_ms),
    );
    let copy_unopt = summed(&samples, |s| &unopt(s).copy_ms);
    m.set("exec.copy_unopt.ms", copy_unopt);
    m.set(
        "exec.vm.dispatch_unopt.ms",
        summed(&samples, |s| &unopt(s).dispatch_ms),
    );
    if let Some((p, s)) = programs
        .iter()
        .zip(&samples)
        .find(|(p, _)| p.loop_items > 0)
    {
        m.set(
            "exec.vm.scalar_loop.ns_per_iter",
            Reading::of(&opt(s).body_ms).scaled(1e6 / p.loop_items as f64),
        );
    }
    let last = |pick: &dyn Fn(&Stats) -> u64, variant: usize| -> f64 {
        samples
            .iter()
            .map(|s| pick(&s.variants[variant].last) as f64)
            .sum()
    };
    m.exact("exec.kernel.launches", last(&|s| s.kernel_launches, OPT));
    m.exact("exec.copy.bytes", last(&|s| s.bytes_copied, OPT));
    let copied_unopt = last(&|s| s.bytes_copied, UNOPT);
    m.exact("exec.copy.bytes_unopt", copied_unopt);
    m.exact("exec.copy.count", last(&|s| s.num_copies, OPT));
    m.exact("exec.copy.bytes_elided", last(&|s| s.bytes_elided, OPT));
    if copy_unopt.value > 0.0 {
        m.set(
            "exec.copy.gbps",
            Reading::derived(copied_unopt / (copy_unopt.value * 1e6), copy_unopt.n),
        );
    }

    // exec::store
    m.exact("exec.store.allocs", last(&|s| s.num_allocs, OPT));
    m.exact("exec.store.blocks_reused", last(&|s| s.blocks_reused, OPT));
    m.exact(
        "exec.store.bytes_zeroing_elided",
        last(&|s| s.bytes_zeroing_elided, OPT),
    );
    m.exact(
        "exec.store.carried_releases",
        last(&|s| s.carried_releases, OPT),
    );
    m.exact(
        "exec.store.color_slab_hits",
        last(&|s| s.color_slab_hits, OPT),
    );
    m.exact(
        "exec.store.peak_live_bytes",
        last(&|s| s.peak_bytes_live, OPT),
    );
    m.exact(
        "exec.store.peak_live_bytes_unopt",
        last(&|s| s.peak_bytes_live, UNOPT),
    );

    // The benchmark's own cost and coverage, then the legs that ride on
    // a traced run.
    if cfg.trace {
        let overhead = trace_overhead_pct(
            &samples,
            |s| &opt(s).wall_ms,
            cfg.rounds_per_epoch(ROUNDS_PER_EPOCH),
        );
        emit_trace(&mut m, &tr, "opt", overhead, rounds);
        parallel_leg(&mut programs, &samples, &mut m, &mut tally);
        checked_leg(specs, &mut m, &mut tally);
    }

    let rows = programs
        .iter()
        .zip(&samples)
        .map(|(p, s)| {
            let r = |v: &[f64]| crate::report::reading_json(Reading::of(v), "ms");
            let (o, u) = (opt(s), unopt(s));
            Json::obj([
                ("program", Json::Str(p.name.clone())),
                ("reference_ms", r(&s.reference_ms)),
                ("unopt_wall_ms", r(&u.wall_ms)),
                ("unopt_body_ms", r(&u.body_ms)),
                ("opt_wall_ms", r(&o.wall_ms)),
                ("opt_body_ms", r(&o.body_ms)),
                ("opt_kernel_ms", r(&o.kernel_ms)),
                ("opt_copy_ms", r(&o.copy_ms)),
                ("opt_dispatch_ms", r(&o.dispatch_ms)),
                ("opt_io_ms", r(&o.io_ms)),
                ("compile_cold_ms", r(&o.cold.wall_ms)),
                (
                    "opt_rel",
                    Json::Num(median(&s.reference_ms) / median(&o.body_ms)),
                ),
                ("impact", Json::Num(median(&u.body_ms) / median(&o.body_ms))),
                ("peak_live_bytes", Json::Num(o.last.peak_bytes_live as f64)),
            ])
        })
        .collect();

    Outcome {
        metrics: m,
        tally,
        rows,
        spans: tr.spans().to_vec(),
        timed_s: epochs.timed.as_secs_f64(),
    }
}

/// The optimized plans again at `nproc` threads, in the last epoch's
/// sessions: body time against the timed section's 1-thread medians,
/// plus the pool's own accounting of the last such run.
fn parallel_leg(
    programs: &mut [Prepared],
    samples: &[Samples],
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let nproc = crate::envinfo::nproc();
    let (mut serial, mut parallel) = (0.0, 0.0);
    let (mut chunks, mut stolen, mut engaged, mut offered) = (0u64, 0u64, 0u64, 0u64);
    for (p, s) in programs.iter_mut().zip(samples) {
        let v = &mut p.variants[OPT];
        let mut body = Vec::new();
        let mut pool = Stats::default();
        for _ in 0..PAR_RUNS {
            let (out, stats) = v
                .session
                .run_plan(
                    v.handle,
                    &p.case.inputs,
                    &p.case.kernels,
                    Mode::Memory,
                    nproc,
                )
                .unwrap_or_else(|e| panic!("{}: run at {nproc} threads failed: {e}", p.name));
            tally.check(outputs_match(&p.expect, &out, p.case.tol), || {
                format!(
                    "{}: output at {nproc} threads differs from the reference",
                    p.name
                )
            });
            body.push(ms(stats.total_time));
            pool = stats;
        }
        serial += median(&opt(s).body_ms);
        parallel += median(&body);
        chunks += pool.par_chunks;
        stolen += pool.par_chunks_stolen;
        engaged += pool.par_workers_engaged;
        offered += pool.par_workers_offered;
    }
    m.set(
        "exec.pool.par_speedup",
        Reading::derived(serial / parallel, PAR_RUNS),
    );
    m.exact("exec.pool.chunks", chunks as f64);
    m.exact("exec.pool.chunks_stolen", stolen as f64);
    if offered > 0 {
        m.exact(
            "exec.pool.workers_engaged_share",
            engaged as f64 / offered as f64,
        );
    }
}

/// The quick datasets under `Mode::Checked`, twice in one session so the
/// second run recycles blocks; the sanitizer must stay silent.
fn checked_leg(specs: &[ProgramSpec], m: &mut Metrics, tally: &mut Tally) {
    let (mut body, mut cells, mut verified) = (0.0, 0u64, 0u64);
    for spec in specs {
        let case = (spec.build)(Size::Quick);
        let compiled = case.compile(true);
        let (_, expect) = (case.reference)(&case.inputs);
        let mut session = Session::new();
        case.run_checked_in_at(&mut session, &compiled, 1);
        let (out, stats) = case.run_checked_in_at(&mut session, &compiled, 1);
        tally.check(
            outputs_match(&expect, &out, case.tol) && stats.diagnostics.is_empty(),
            || {
                format!(
                    "{}/{}: checked mode: {} diagnostics, first: {:?}",
                    case.name,
                    case.dataset,
                    stats.diagnostics.len(),
                    stats.diagnostics.first().map(|d| d.to_string())
                )
            },
        );
        body += ms(stats.total_time);
        cells += stats.cells_checked;
        verified += stats.circuits_verified;
    }
    m.set("exec.checked.body.ms", Reading::exact(body));
    m.exact("exec.checked.cells", cells as f64);
    m.exact("exec.checked.circuits_verified", verified as f64);
}
