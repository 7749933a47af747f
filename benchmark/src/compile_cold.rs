//! `compile_cold`: compile and lower only. The operation is one cold
//! `compile` + cold `PlanCache::prepare_full` on a fresh cache (for a
//! source file, `lang::parse_program` first); nothing is executed in the
//! timed section. Units: the ten workload programs under both option
//! sets, the seeded fuzz programs and the benchmark's source files.
//!
//! Set-up compiles everything twice and requires identical scrubbed
//! pretty-IR hashes and remark counts, then runs each compiled unit once
//! against its oracle — the hand-written reference for a workload
//! program, `Mode::Pure` on the un-compiled source IR otherwise. Every
//! timed compile must reproduce the set-up hash.

use crate::catalog::{fuzz_program, Size, ALL_TEN, SOURCES};
use crate::cold::{cold_compile, emit_optimized, emit_trace, trace_overhead_pct, ColdSamples};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::run::{outputs_match, traced_round, us, Cfg, Epochs, Outcome, Tally};
use crate::sample::{summed, Reading};
use crate::span::Tracer;
use arraymem_core::{compile, Compiled, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode, OutputValue};
use arraymem_ir::pretty::{program_to_string, scrub_uniques};
use arraymem_ir::Program;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Fuzz programs drawn per run (full, quick) and ops per trace.
const FUZZ_PROGRAMS: (u64, u64) = (200, 12);
pub const FUZZ_OPS: usize = 16;
/// Timed rounds per epoch of a time-boxed run: nothing here ages, so
/// epochs only exist to sample `setup_s`, and a set-up costs several
/// rounds.
const ROUNDS_PER_EPOCH: usize = 12;

struct Unit {
    name: String,
    /// Source text to parse before each compile, for a source file.
    text: Option<&'static str>,
    program: Program,
    opts: Options,
    optimized: bool,
    kernels: KernelRegistry,
    /// One compile from set-up: the remark counts.
    compiled: Compiled,
    /// Scrubbed pretty-IR hash every later compile must reproduce.
    ir_hash: u64,
}

/// One unit's samples, accumulated over every epoch (the units are
/// rebuilt identically from the seed each time).
#[derive(Default)]
struct Samples {
    parse_us: Vec<f64>,
    s: ColdSamples,
    /// Top-level instructions of the most recent lowered plan.
    instrs: usize,
}

fn ir_hash(c: &Compiled) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    scrub_uniques(&program_to_string(&c.program)).hash(&mut h);
    c.compile_report.remarks.len().hash(&mut h);
    h.finish()
}

/// Compile twice (determinism), run once against `oracle`.
#[allow(clippy::too_many_arguments)]
fn unit(
    name: String,
    text: Option<&'static str>,
    program: Program,
    opts: Options,
    optimized: bool,
    kernels: KernelRegistry,
    inputs: &[InputValue],
    oracle: &[OutputValue],
    tol: f64,
    tally: &mut Tally,
) -> Unit {
    let first = compile(&program, &opts).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let second = compile(&program, &opts).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let hash = ir_hash(&first);
    tally.check(hash == ir_hash(&second), || {
        format!("{name}: two compiles of one program differ")
    });
    let got = run_program(&first.program, inputs, &kernels, Mode::Memory, 1);
    tally.check(
        got.as_ref()
            .is_ok_and(|(out, _)| outputs_match(oracle, out, tol)),
        || {
            format!(
                "{name}: compiled output differs from its oracle: {:?}",
                got.as_ref().err()
            )
        },
    );
    Unit {
        name,
        text,
        program,
        opts,
        optimized,
        kernels,
        compiled: first,
        ir_hash: hash,
    }
}

fn pure(name: &str, program: &Program, inputs: &[InputValue]) -> Vec<OutputValue> {
    run_program(program, inputs, &KernelRegistry::new(), Mode::Pure, 1)
        .unwrap_or_else(|e| panic!("{name}: pure-mode oracle failed: {e}"))
        .0
}

struct SetUp {
    units: Vec<Unit>,
    ir_build_us: f64,
    ir_stms: usize,
    lang_bytes: usize,
}

fn set_up(cfg: &Cfg, tally: &mut Tally) -> SetUp {
    let mut units = Vec::new();
    let mut ir_build_us = 0.0;
    for spec in ALL_TEN {
        let t = Instant::now();
        black_box((spec.ir)());
        ir_build_us += us(t.elapsed());
        let case = (spec.build)(Size::Quick);
        let (_, oracle) = (case.reference)(&case.inputs);
        for (label, base, optimized) in [
            ("default", Options::default(), false),
            ("optimized", Options::optimized(), true),
        ] {
            units.push(unit(
                format!("{}:{label}", spec.name),
                None,
                case.program.clone(),
                base.with_env(case.env.clone()),
                optimized,
                case.kernels.clone(),
                &case.inputs,
                &oracle,
                case.tol,
                tally,
            ));
        }
    }
    let fuzz = match cfg.size {
        Size::Full => FUZZ_PROGRAMS.0,
        Size::Quick => FUZZ_PROGRAMS.1,
    };
    for i in 0..fuzz {
        let t = Instant::now();
        let program = fuzz_program(cfg.seed, i, FUZZ_OPS);
        ir_build_us += us(t.elapsed());
        let name = format!("fuzz:{i}");
        let oracle = pure(&name, &program, &[]);
        units.push(unit(
            name,
            None,
            program,
            Options::optimized(),
            true,
            KernelRegistry::new(),
            &[],
            &oracle,
            0.0,
            tally,
        ));
    }
    let mut lang_bytes = 0;
    for src in SOURCES {
        let elab = arraymem_lang::parse_program(src.text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", src.name));
        lang_bytes += src.text.len();
        let inputs = (src.inputs)();
        let oracle = pure(src.name, &elab.program, &inputs);
        units.push(unit(
            src.name.to_string(),
            Some(src.text),
            elab.program,
            Options::optimized().with_env(elab.env),
            true,
            KernelRegistry::new(),
            &inputs,
            &oracle,
            0.0,
            tally,
        ));
    }
    let ir_stms = units
        .iter()
        .filter(|u| u.optimized)
        .map(|u| arraymem_core::pipeline::ir_stats(&u.program).stms)
        .sum();
    SetUp {
        units,
        ir_build_us,
        ir_stms,
        lang_bytes,
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut tally = Tally::default();
    let mut samples: Vec<Samples> = Vec::new();
    let mut built = None;
    let mut tr = Tracer::new(Instant::now());
    let mut epochs = Epochs::default();
    while epochs.more(cfg) {
        let set = epochs.set_up(|| set_up(cfg, &mut tally));
        samples.resize_with(set.units.len(), Samples::default);

        let t = Instant::now();
        let rounds = cfg.rounds_per_epoch(ROUNDS_PER_EPOCH);
        for round_no in 0..rounds {
            tr.on = cfg.trace && traced_round(epochs.done(), round_no);
            for (u, acc) in set.units.iter().zip(&mut samples) {
                let sp = tr.open("unit");
                let mut parse_ms = 0.0;
                // Each parse interns its own size symbols, so a source
                // file is compiled under the assumptions of that parse.
                let (parsed, parsed_opts);
                let (program, opts) = match u.text {
                    Some(text) => {
                        let sp = tr.open("parse");
                        let t = Instant::now();
                        parsed = arraymem_lang::parse_program(text)
                            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", u.name));
                        let dt = t.elapsed();
                        tr.close(sp);
                        acc.parse_us.push(us(dt));
                        parse_ms = dt.as_secs_f64() * 1e3;
                        parsed_opts = Options::optimized().with_env(parsed.env.clone());
                        (&parsed.program, &parsed_opts)
                    }
                    None => (&u.program, &u.opts),
                };
                let (compiled, plan) =
                    cold_compile(&mut tr, &u.name, program, opts, &u.kernels, &mut acc.s);
                acc.instrs = plan.num_instrs();
                tr.close(sp);
                // A source file's operation includes its parse.
                if let (Some(w), Some(s)) = (acc.s.wall_ms.last_mut(), acc.s.self_ms.last_mut()) {
                    *w += parse_ms;
                    *s += parse_ms;
                }
                tally.check(ir_hash(&compiled) == u.ir_hash, || {
                    format!("{}: compile differs from the set-up compile", u.name)
                });
            }
        }
        tr.on = false;
        let walls_ms: f64 = samples
            .iter()
            .flat_map(|a| a.s.wall_ms.iter().rev().take(rounds))
            .sum();
        epochs.close(t.elapsed(), rounds * set.units.len(), walls_ms / 1e3);
        built = Some(set);
    }
    let SetUp {
        units,
        ir_build_us,
        ir_stms,
        lang_bytes,
    } = built.expect("at least one epoch");
    let paired = || units.iter().zip(&samples);
    let rounds = samples.first().map_or(0, |a| a.s.wall_ms.len());

    let mut m = Metrics::default();
    epochs.emit(&mut m);
    m.set("wall_ms", summed(&samples, |a| &a.s.wall_ms));
    m.set("body_ms", summed(&samples, |a| &a.s.self_ms));

    m.set("ir.build.us", Reading::exact(ir_build_us));
    m.exact("ir.stms", ir_stms as f64);
    m.set(
        "lang.parse_elab.us",
        summed(
            paired().filter(|(u, _)| u.text.is_some()).map(|(_, a)| a),
            |a| &a.parse_us,
        ),
    );
    m.exact("lang.bytes", lang_bytes as f64);
    m.set(
        "core.compile_unopt.ms",
        summed(
            paired().filter(|(u, _)| !u.optimized).map(|(_, a)| a),
            |a| &a.s.compile_ms,
        ),
    );
    emit_optimized(
        &mut m,
        paired()
            .filter(|(u, _)| u.optimized)
            .map(|(u, a)| (&a.s, &u.compiled, a.instrs)),
    );
    if cfg.trace {
        let overhead = trace_overhead_pct(
            &samples,
            |a| &a.s.wall_ms,
            cfg.rounds_per_epoch(ROUNDS_PER_EPOCH),
        );
        emit_trace(&mut m, &tr, "unit", overhead, rounds);
    }

    // One row per family, so the output file stays readable.
    let family = |prefix: &str| -> Json {
        let members = || {
            paired()
                .filter(|(u, _)| u.name.starts_with(prefix))
                .map(|(_, a)| a)
        };
        let of =
            |f: fn(&Samples) -> &[f64]| crate::report::reading_json(summed(members(), f), "ms");
        Json::obj([
            (
                "family",
                Json::Str(prefix.trim_end_matches(':').to_string()),
            ),
            ("units", Json::Num(members().count() as f64)),
            ("wall_ms", of(|a| &a.s.wall_ms)),
            ("compile_ms", of(|a| &a.s.compile_ms)),
            ("lower_ms", of(|a| &a.s.lower_ms)),
        ])
    };
    let mut rows: Vec<Json> = ALL_TEN
        .iter()
        .map(|s| family(&format!("{}:", s.name)))
        .collect();
    rows.push(family("fuzz:"));
    rows.extend(SOURCES.iter().map(|s| family(s.name)));

    Outcome {
        metrics: m,
        tally,
        rows,
        spans: tr.spans().to_vec(),
        timed_s: epochs.timed.as_secs_f64(),
    }
}
