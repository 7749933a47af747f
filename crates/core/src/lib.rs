//! The paper's primary contribution: an LMAD-based notion of memory in the
//! IR, and the **array short-circuiting** optimization.
//!
//! The middle-end is one fixed table of named stages ([`pipeline`]), all
//! operating on the shared IR of `arraymem-ir`, whose memory annotations
//! are optional "add-ons":
//!
//! 1. `introduce` ([`introduce`]) — insert `alloc` statements and
//!    `@mem → ixfn` annotations (paper §IV-C); `if`/`loop` results get
//!    *existential* memory via anti-unification ([`antiunify`]) of the
//!    index functions.
//! 2. `antiunify` — audit the existential-memory invariant and record
//!    which results carry existential memory.
//! 3. `hoist` ([`hoist`]) — aggressively hoist allocations upward,
//!    enabling the second safety property of short-circuiting (§V,
//!    property 2).
//! 4. `short_circuit` ([`short_circuit`]) — the bottom-up analysis of §V:
//!    detect circuit points, rebase the candidate's alias web into the
//!    destination memory, maintain the `U_xss`/`W_bs` access summaries,
//!    and verify non-overlap with the static test of §V-C; on success the
//!    update / concat copy is elided and mapnests construct their rows in
//!    place.
//! 5. `cleanup` ([`cleanup`]) — remove allocations whose memory became
//!    unreferenced.
//! 6. `par_safety` ([`par_safety`]) — prove, per kernel mapnest, that the
//!    per-iteration write LMADs are chunk-wise disjoint (via the same
//!    `non_overlap` test as §V-C), so the executor may run the map in
//!    place and in parallel; each verdict travels to the runtime as a
//!    [`ParSafetyRecord`].
//! 7. `release` ([`release`]) — schedule early block releases (the plan
//!    itself is recomputed at lowering time; the stage records its size).
//!
//! The stages share their scoping analyses instead of re-deriving them:
//! nested blocks are reached through `arraymem_ir`'s traversal
//! (`Exp::blocks`, `Block::for_each_stm`, `Stm::bound`), a loop body's
//! environment is `arraymem_ir::loop_env`, and "where does this array
//! live" is answered by the one binding table, [`MemTable`], and "when is
//! this block touched" by the one block liveness (the private `liveness`
//! module), which `merge`, `cleanup` and `release` all read. No stage
//! matches on `if` / `loop` / lambda-`map` merely to recurse.
//!
//! [`compile`] runs the standard pipeline and returns the optimized
//! program together with a [`Report`] of every short-circuit candidate and
//! a [`CompileReport`] of per-stage timings and structured [`Remark`]s.
//! The pipeline's fingerprint is stamped into the program
//! (`Program::pipeline_fingerprint`) so the executor's plan cache never
//! serves a plan compiled under a different pass configuration.

pub mod antiunify;
pub mod cleanup;
pub mod fingerprint;
pub mod hoist;
pub mod introduce;
mod liveness;
pub mod memtable;
pub mod merge;
pub mod par_safety;
pub mod pipeline;
pub mod release;
pub mod remark;
pub mod short_circuit;

pub use fingerprint::{combine_fingerprints, fingerprint, fingerprint_items};
pub use memtable::MemTable;
pub use merge::{HostGrowth, MergeOutcome, MergeRecord, MergeReport};
pub use par_safety::{ParLevel, ParSafetyRecord};
pub use pipeline::{CompileReport, IrStats, PassRun};
pub use release::ReleasePlan;
pub use remark::{MergeReject, ParReject, RejectReason, Remark, RemarkKind};
pub use short_circuit::{CandidateOutcome, CircuitCheck, Rejection, Report};

use arraymem_ir::Program;
use arraymem_symbolic::Env;

/// Compilation options. The extra switches exist for the ablation
/// studies (see `crates/bench/benches/ablations.rs`): each disables one
/// ingredient DESIGN.md calls out, so its contribution can be measured.
#[derive(Clone)]
pub struct Options {
    /// Run the array short-circuiting optimization.
    pub short_circuit: bool,
    /// Assumptions about the program's size parameters (e.g. `n = q·b+1`,
    /// `q ≥ 2`), used by the static non-overlap test.
    pub env: Env,
    /// Hoist allocations (§V property 2). Disabling defeats candidates
    /// whose destination memory is allocated after the fresh definition.
    pub hoist: bool,
    /// Let safe kernel mapnests construct rows directly in their result
    /// memory (§V-A(e)). Disabling keeps the private-tile copy-out even
    /// where it is provably unnecessary.
    pub mapnest_in_place: bool,
    /// Run the memory block merging pass ([`merge`]): allocations with
    /// disjoint live ranges share one block, cutting peak allocation.
    pub merge: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            short_circuit: false,
            env: Env::default(),
            hoist: true,
            mapnest_in_place: true,
            merge: false,
        }
    }
}

impl Options {
    /// The standard optimized configuration: short-circuiting and block
    /// merging on, with every supporting ingredient (hoisting, in-place
    /// mapnests) at its default. `Options::default()` is the unoptimized
    /// baseline.
    pub fn optimized() -> Options {
        Options {
            short_circuit: true,
            merge: true,
            ..Options::default()
        }
    }

    /// This configuration with the given size-assumption environment.
    pub fn with_env(self, env: Env) -> Options {
        Options { env, ..self }
    }
}

/// The result of compilation.
pub struct Compiled {
    pub program: Program,
    /// The short-circuiting candidate report (every candidate considered).
    pub report: Report,
    /// Per-stage timings, delta stats and structured remarks.
    pub compile_report: CompileReport,
}

/// Run the standard memory pipeline over a (memory-free) source program.
pub fn compile(prog: &Program, opts: &Options) -> Result<Compiled, String> {
    pipeline::run(prog, opts, None, &mut |_, _| {})
}

/// **Mutation-test hook**, kept out of [`Options`] and of the pipeline
/// fingerprint: one deliberate fault for the checked VM's sanitizer (or,
/// for `Merge`, the pure oracle) to catch. The first three are consumed
/// by [`compile_sabotaged`]; the last two by
/// `arraymem_exec::lower_plan_sabotaged`. Each entry ignores the other's
/// variants.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sabotage {
    /// Approve short-circuit candidates past a failing write check
    /// (caught as `Diagnostic::CircuitOverlap`).
    ShortCircuit,
    /// Push interference-rejected merge candidates into a host block
    /// anyway. No sanitizer check covers lifetime merges: the outputs
    /// diverge from `Mode::Pure`, which is what the differential legs
    /// and the fuzzer's minimizer demo catch.
    Merge,
    /// Mark every kernel mapnest parallel-safe regardless of proof
    /// (caught as `Diagnostic::ParOverlap`, the map then runs serially).
    Parallel,
    /// Fire every scheduled block release one statement early (caught as
    /// `Diagnostic::UseAfterRelease`).
    EarlyRelease,
    /// Release each carried ping-pong block right after its replacement's
    /// `alloc`, before the body's last use of it (caught as
    /// `Diagnostic::UseAfterRelease`).
    EarlyCarriedRelease,
}

/// [`compile`] with one pass forced past its proof. The forced decisions
/// show in the compiled program and its records, so the result can never
/// share a plan-cache key with the honest compile it differs from.
#[doc(hidden)]
pub fn compile_sabotaged(
    prog: &Program,
    opts: &Options,
    sabotage: Sabotage,
) -> Result<Compiled, String> {
    pipeline::run(prog, opts, Some(sabotage), &mut |_, _| {})
}

/// As [`compile`], invoking `observe(stage_name, program)` with the input
/// program (stage `"input"`) and after every executed stage — the hook
/// behind per-pass IR snapshot tests.
pub fn compile_observed(
    prog: &Program,
    opts: &Options,
    observe: &mut dyn FnMut(&str, &Program),
) -> Result<Compiled, String> {
    pipeline::run(prog, opts, None, observe)
}

#[cfg(test)]
mod tests;
