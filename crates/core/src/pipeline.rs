//! The middle-end pass pipeline.
//!
//! Every transformation of the memory middle-end — memory introduction,
//! the anti-unification audit, allocation hoisting, short-circuiting,
//! dead-allocation cleanup and release scheduling — runs as a named stage
//! of one fixed table, driven by [`run`]. The driver records, per stage:
//!
//! - wall time and delta [`IrStats`] (statement/alloc/elision counts);
//! - the structured [`Remark`]s the stage emitted;
//! - an IR dump after the stage when `ARRAYMEM_PRINT_IR` is set (the
//!   flag is read once; nothing is formatted when it is unset);
//! - in debug builds (or under `ARRAYMEM_VERIFY_IR`), a full
//!   [`validate_memory`](arraymem_ir::validate::validate_memory) check —
//!   a pass that breaks the memory discipline panics *by name* instead of
//!   surfacing as a miscompile several stages later.
//!
//! The pipeline's fingerprint — pass set, ordering and the options that
//! change pass behavior — is stamped into
//! [`Program::pipeline_fingerprint`], which the executor's plan cache
//! hashes: toggling any pass changes the cache key, so a stale plan
//! compiled under a different pipeline is never served.

use crate::remark::{RejectReason, Remark, RemarkKind};
use crate::short_circuit::{self, Report};
use crate::{cleanup, hoist, introduce, release::ReleasePlan, Options, Sabotage};
use arraymem_ir::pretty::program_to_string;
use arraymem_ir::{Exp, Program, Type, Var};
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Size and elision counts of a program, cheap enough to recompute before
/// and after every stage; the difference is the stage's visible effect.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IrStats {
    /// Statements, including nested blocks.
    pub stms: usize,
    /// `alloc` statements.
    pub allocs: usize,
    /// Pattern and merge-parameter memory bindings.
    pub mem_bindings: usize,
    /// Updates whose copy has been elided.
    pub elided_updates: usize,
    /// Concat arguments whose copy has been elided.
    pub elided_concat_args: usize,
    /// Kernel maps constructing their rows in place.
    pub in_place_maps: usize,
}

/// Compute [`IrStats`] for a program.
pub fn ir_stats(prog: &Program) -> IrStats {
    let mut s = IrStats::default();
    prog.body.for_each_stm(&mut |stm| {
        s.stms += 1;
        s.mem_bindings += stm.bound().filter(|pe| pe.mem.is_some()).count();
        match &stm.exp {
            Exp::Alloc { .. } => s.allocs += 1,
            Exp::Update { elided: true, .. } => s.elided_updates += 1,
            Exp::Concat { elided, .. } => {
                s.elided_concat_args += elided.iter().filter(|e| **e).count();
            }
            Exp::Map(m) if m.in_place_result => s.in_place_maps += 1,
            _ => {}
        }
    });
    s
}

/// What one executed stage did: timing, before/after stats, remark count.
#[derive(Clone, Debug)]
pub struct PassRun {
    pub name: &'static str,
    pub time: Duration,
    pub before: IrStats,
    pub after: IrStats,
    /// Number of remarks this stage emitted.
    pub remarks: usize,
}

/// The pipeline-level compilation report: one [`PassRun`] per executed
/// stage plus every structured [`Remark`], in emission order.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    pub passes: Vec<PassRun>,
    pub remarks: Vec<Remark>,
    /// Fingerprint of the pass set/ordering/options that ran — the value
    /// stamped into [`Program::pipeline_fingerprint`].
    pub pipeline_fingerprint: u64,
    pub total_time: Duration,
}

impl CompileReport {
    /// The run of the named stage, if it executed.
    pub fn pass(&self, name: &str) -> Option<&PassRun> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Remarks emitted by the named stage.
    pub fn remarks_for<'a>(&'a self, pass: &'a str) -> impl Iterator<Item = &'a Remark> {
        self.remarks.iter().filter(move |r| r.pass == pass)
    }

    /// Every rejected short-circuit candidate, with the legality check
    /// that killed it.
    pub fn rejections(&self) -> impl Iterator<Item = (&Remark, RejectReason)> {
        self.remarks.iter().filter_map(|r| match r.kind {
            RemarkKind::CircuitRejected(why) => Some((r, why)),
            _ => None,
        })
    }
}

/// Mutable state shared by the stages of one pipeline run.
struct PassCx<'a> {
    opts: &'a Options,
    /// Remarks accumulated across stages (every stage appends).
    remarks: Vec<Remark>,
    /// The short-circuiting candidate report (empty until that stage).
    report: Report,
    /// The one pass to force past its proof (mutation self-tests only).
    sabotage: Option<Sabotage>,
}

impl PassCx<'_> {
    fn remark(&mut self, pass: &'static str, stm: Option<Var>, kind: RemarkKind, message: String) {
        self.remarks.push(Remark {
            pass,
            stm,
            kind,
            message,
        });
    }
}

/// One named middle-end stage. A stage disabled under the given options
/// does not execute, produces no [`PassRun`], and changes the pipeline
/// [`fingerprint`].
struct Stage {
    name: &'static str,
    enabled: fn(&Options) -> bool,
    run: fn(&mut Program, &mut PassCx) -> Result<(), String>,
}

/// The standard middle-end, in order.
#[rustfmt::skip]
static STAGES: [Stage; 8] = [
    Stage { name: "introduce", enabled: |_| true, run: introduce_stage },
    Stage { name: "antiunify", enabled: |_| true, run: antiunify_stage },
    Stage { name: "hoist", enabled: |o| o.hoist, run: hoist_stage },
    Stage { name: "short_circuit", enabled: |o| o.short_circuit, run: short_circuit_stage },
    Stage { name: "merge", enabled: |o| o.merge, run: merge_stage },
    Stage { name: "cleanup", enabled: |_| true, run: cleanup_stage },
    Stage { name: "par_safety", enabled: |_| true, run: par_safety_stage },
    Stage { name: "release", enabled: |_| true, run: release_stage },
];

/// Memory introduction (paper §IV-C), as a stage.
fn introduce_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    introduce::introduce_memory_with(prog, &mut cx.remarks)
}

/// Audit of the anti-unification results: every `mem`-typed pattern
/// variable of an `if`/`loop` (the existential memory the unifier
/// introduced) must back at least one array result of the same statement,
/// and every such array gets an [`ExistentialMemory`](RemarkKind) remark.
/// This stage runs directly after `introduce`, before short-circuiting may
/// legitimately rebase results away from their existential blocks.
fn antiunify_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    let mut orphan: Option<Var> = None;
    prog.body.for_each_stm(&mut |stm| {
        if !matches!(stm.exp, Exp::If { .. } | Exp::Loop { .. }) {
            return;
        }
        let mem_vars: Vec<Var> = stm
            .pat
            .iter()
            .filter(|pe| pe.ty == Type::Mem)
            .map(|pe| pe.var)
            .collect();
        let mut referenced: HashSet<Var> = HashSet::new();
        for pe in &stm.pat {
            if let Some(mb) = &pe.mem {
                if mem_vars.contains(&mb.block) {
                    referenced.insert(mb.block);
                    cx.remark(
                        "antiunify",
                        Some(pe.var),
                        RemarkKind::ExistentialMemory,
                        format!("{} carries existential memory {}", pe.var, mb.block),
                    );
                }
            }
        }
        let unbacked = mem_vars.into_iter().find(|m| !referenced.contains(m));
        orphan = orphan.or(unbacked);
    });
    match orphan {
        Some(m) => Err(format!(
            "existential memory {m} backs no result of its statement"
        )),
        None => Ok(()),
    }
}

/// Allocation hoisting (§V property 2), as a stage.
fn hoist_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    let moves = hoist::hoist_allocations(prog);
    if moves > 0 {
        cx.remark(
            "hoist",
            None,
            RemarkKind::Hoisted,
            format!("{moves} upward moves of allocations and their size scalars"),
        );
    }
    Ok(())
}

/// Array short-circuiting (§V), as a stage. Every candidate outcome —
/// elision or rejection, with the rejecting legality check — becomes a
/// remark anchored at the circuit-point statement.
fn short_circuit_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    let report = short_circuit::drive(
        prog,
        &cx.opts.env,
        cx.opts.mapnest_in_place,
        cx.sabotage == Some(Sabotage::ShortCircuit),
    );
    for c in &report.candidates {
        let (kind, message) = if c.succeeded {
            (
                RemarkKind::CircuitElided,
                format!("short-circuited {} into the destination memory", c.root),
            )
        } else {
            let why = c
                .rejection
                .expect("rejected candidate must carry a structured rejection");
            (
                RemarkKind::CircuitRejected(why),
                format!("rejected candidate {}: {}", c.root, c.reason),
            )
        };
        cx.remark("short_circuit", Some(c.stm), kind, message);
    }
    for &v in &report.in_place_stms {
        cx.remark(
            "short_circuit",
            Some(v),
            RemarkKind::MapInPlace,
            format!("mapnest {v} constructs its rows in place"),
        );
    }
    cx.report = report;
    Ok(())
}

/// Memory block merging (see [`crate::merge`]), as a stage. Runs after
/// short-circuiting (so rebased webs are seen in their final blocks) and
/// before cleanup (which collects the vacated `alloc`s). What the
/// executor acts on — the carried releases, the merged-block count —
/// travels in [`Report::merges`] next to the circuit checks.
fn merge_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    let rep =
        crate::merge::merge_blocks_with(prog, &cx.opts.env, cx.sabotage == Some(Sabotage::Merge));
    for m in &rep.merged {
        let how = if m.forced {
            "forced past interference"
        } else {
            "disjoint live ranges"
        };
        cx.remark(
            "merge",
            Some(m.victim),
            RemarkKind::BlocksMerged,
            format!("merged block {} into {} ({how})", m.victim, m.host),
        );
    }
    for g in &rep.grown {
        cx.remark(
            "merge",
            Some(g.host),
            RemarkKind::HostGrown,
            format!(
                "grew host block {} to fit {} ({} -> {})",
                g.host, g.member, g.from, g.to
            ),
        );
    }
    for &(v, why) in &rep.rejected {
        cx.remark(
            "merge",
            Some(v),
            RemarkKind::MergeRejected(why),
            format!("block {v} keeps its own allocation ({why:?})"),
        );
    }
    for r in &rep.records {
        if let crate::merge::MergeRecord::CarriedRelease {
            loop_mem,
            yield_mem,
            ..
        } = r
        {
            cx.remark(
                "merge",
                Some(*loop_mem),
                RemarkKind::CarriedRelease,
                format!("carried block {loop_mem} released in-body once {yield_mem} replaces it"),
            );
        }
    }
    cx.report.merges = rep.records;
    Ok(())
}

/// Dead-allocation elimination, as a stage.
fn cleanup_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    for m in cleanup::remove_dead_allocs(prog) {
        cx.remark(
            "cleanup",
            Some(m),
            RemarkKind::DeadAllocRemoved,
            format!("removed dead allocation {m}"),
        );
    }
    Ok(())
}

/// Parallel-safety analysis ([`crate::par_safety`]), as a stage. Runs
/// after merging and cleanup (so verdicts are about the final memory
/// layout) and before release scheduling. Its records — the executor
/// obligations behind every parallel in-place dispatch — travel in
/// [`Report::par_safety`] next to the circuit checks and merge records.
fn par_safety_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    let mut records = crate::par_safety::par_safety(prog, &cx.opts.env);
    if cx.sabotage == Some(Sabotage::Parallel) {
        crate::par_safety::force_safe(&mut records);
    }
    for r in &records {
        let (kind, message) = match (r.level, r.forced) {
            (crate::par_safety::ParLevel::Safe, false) => (
                RemarkKind::MapParallelSafe,
                format!(
                    "mapnest {} proven parallel-safe: runs in place, in parallel",
                    r.stm
                ),
            ),
            (crate::par_safety::ParLevel::Safe, true) => (
                RemarkKind::MapParallelSafe,
                format!(
                    "mapnest {} FORCED parallel-safe past {:?}",
                    r.stm,
                    r.reject.expect("forced record keeps the genuine reject")
                ),
            ),
            (level, _) => {
                let why = r
                    .reject
                    .expect("non-safe verdict must carry a structured reject");
                let how = match level {
                    crate::par_safety::ParLevel::NeedsBuffer => {
                        "runs parallel through private tiles"
                    }
                    _ => "is serialized",
                };
                let what = if why == crate::remark::ParReject::RuntimeIndexedWrite {
                    "scatter"
                } else {
                    "mapnest"
                };
                (
                    RemarkKind::MapParRejected(why),
                    format!("{what} {} {how} ({why:?})", r.stm),
                )
            }
        };
        cx.remark("par_safety", Some(r.stm), kind, message);
    }
    cx.report.par_safety = records;
    Ok(())
}

/// Release scheduling, as a stage. The [`ReleasePlan`] itself is keyed by
/// block addresses and cannot outlive the program move into [`Compiled`]
/// (`crate::Compiled`); the stage computes it for its timing row and
/// remark and drops it — the executor recomputes at lowering time, where
/// the plan feeds `Instr::Release` placement.
fn release_stage(prog: &mut Program, cx: &mut PassCx) -> Result<(), String> {
    let n = ReleasePlan::compute(prog).num_releases();
    if n > 0 {
        cx.remark(
            "release",
            None,
            RemarkKind::ReleaseScheduled,
            format!("scheduled {n} early release points"),
        );
    }
    Ok(())
}

fn print_ir_enabled() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var_os("ARRAYMEM_PRINT_IR").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

fn verify_ir_enabled() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    cfg!(debug_assertions)
        || *FLAG.get_or_init(|| {
            std::env::var_os("ARRAYMEM_VERIFY_IR").is_some_and(|v| !v.is_empty() && v != "0")
        })
}

/// Fingerprint of the *effective* pipeline: the enabled stage names in
/// order, plus the option switches that change pass behavior without
/// removing a stage. Stamped into [`Program::pipeline_fingerprint`],
/// from where the executor's plan cache picks it up — compiling the
/// same source under different pipelines yields different cache keys.
fn fingerprint(opts: &Options) -> u64 {
    let mut parts: Vec<String> = STAGES
        .iter()
        .filter(|s| (s.enabled)(opts))
        .map(|s| s.name.to_string())
        .collect();
    parts.push(format!("mapnest_in_place={}", opts.mapnest_in_place));
    crate::fingerprint::fingerprint_items(&parts)
}

/// Run the standard middle-end — `introduce → antiunify → hoist →
/// short_circuit → merge → cleanup → par_safety → release` (`hoist`,
/// `short_circuit` and `merge` subject to their [`Options`] switches) —
/// over a (memory-free) source program, invoking `observe(stage_name,
/// program)` with the input program (stage name `"input"`) and after
/// every executed stage.
pub(crate) fn run(
    prog: &Program,
    opts: &Options,
    sabotage: Option<Sabotage>,
    observe: &mut dyn FnMut(&str, &Program),
) -> Result<crate::Compiled, String> {
    arraymem_ir::validate::validate(prog)?;
    let fp = fingerprint(opts);
    let t_total = Instant::now();
    let mut p = prog.clone();
    let mut cx = PassCx {
        opts,
        remarks: Vec::new(),
        report: Report::default(),
        sabotage,
    };
    let mut passes: Vec<PassRun> = Vec::new();
    if print_ir_enabled() {
        eprintln!("== {}: input IR ==\n{}", p.name, program_to_string(&p));
    }
    observe("input", &p);
    for stage in STAGES.iter().filter(|s| (s.enabled)(opts)) {
        let name = stage.name;
        let before = ir_stats(&p);
        let remarks_before = cx.remarks.len();
        let t0 = Instant::now();
        (stage.run)(&mut p, &mut cx)?;
        passes.push(PassRun {
            name,
            time: t0.elapsed(),
            before,
            after: ir_stats(&p),
            remarks: cx.remarks.len() - remarks_before,
        });
        if print_ir_enabled() {
            eprintln!(
                "== {}: IR after `{name}` ==\n{}",
                p.name,
                program_to_string(&p)
            );
        }
        if verify_ir_enabled() {
            if let Err(e) = arraymem_ir::validate::validate_memory(&p) {
                panic!("pipeline: pass `{name}` produced invalid IR: {e}");
            }
        }
        observe(name, &p);
    }
    p.pipeline_fingerprint = fp;
    Ok(crate::Compiled {
        program: p,
        report: cx.report,
        compile_report: CompileReport {
            passes,
            remarks: cx.remarks,
            pipeline_fingerprint: fp,
            total_time: t_total.elapsed(),
        },
    })
}
