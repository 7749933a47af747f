//! Execution substrate: the "GPU" our compiler targets.
//!
//! The paper generates GPU code in which "the actual structure of the LMAD
//! for a given array is inlined for every array access" (§VII). This crate
//! plays that role on the CPU:
//!
//! - [`store`]: numbered, untyped memory blocks, recycled through one
//!   free list, with allocation accounting;
//! - [`view`]: LMAD-addressed views over blocks — an index function whose
//!   coefficients are integers (`arraymem_lmad::IndexFn<i64>`) plus a
//!   block; the element type lives here, not in the block;
//! - [`value`]: what a register holds — a `Copy` tag-and-word scalar or
//!   block id — and the array handle the machine keeps beside its
//!   registers (a block plus a shared index function);
//! - [`kernel`]: the registry of native kernels a `map` may invoke (the
//!   moral equivalent of generated device code);
//! - [`pool`]: a work-stealing parallel-for on scoped threads (workers
//!   spawned per dispatch and joined before it returns, chunks claimed
//!   off a shared atomic counter, degrading gracefully to inline
//!   execution on small trip counts) with per-dispatch utilization
//!   accounting;
//! - [`plan`]: lowering — nested IR to a flat instruction stream, names to
//!   slots, each scalar expression once to straight-line code over
//!   numbered values, and every LMAD coefficient `Poly → SlotPoly` (a
//!   polynomial over register slots), which the machine takes `→ i64`
//!   per run, an overflow being the request's error: the executor
//!   computes with the compiler's LMAD structure over integers and never
//!   builds a polynomial;
//! - `arith`: what every scalar operator computes, once — the promotion
//!   and result tag as functions of the operands' tags, the arithmetic
//!   as per-type functions — for the scalar evaluator and the strips;
//! - `strip`: the one typer of scalar code — a body's code typed once
//!   per entry, then one monomorphic loop per operator: lambda maps in
//!   strips of the width, loops at width 1, the evaluator their oracle;
//! - [`vm`]: the machine executing compiled programs — registers are
//!   words, arrays live in a table beside them, no per-element path
//!   touches the heap — in three modes (see [`vm::Mode`]), `Pure` the
//!   semantic ground truth;
//! - [`stats`]: instrumentation — bytes allocated/copied/elided, kernel
//!   and copy time, checked-mode diagnostics — from which the benchmark
//!   tables are built.

mod arith;
pub mod cache;
pub mod kernel;
pub mod plan;
pub mod pool;
pub mod stats;
pub mod store;
mod strip;
pub mod value;
pub mod view;
pub mod vm;

pub use cache::{PlanCache, PlanStats, PrepareOutcome};
pub use kernel::{KernelCtx, KernelRegistry};
#[doc(hidden)]
pub use plan::lower_plan_sabotaged;
pub use plan::{lower_plan_full, ExecPlan, Slot};
pub use pool::{default_threads, DispatchInfo};
pub use stats::{Diagnostic, Stats};
pub use store::{ArenaStats, FleetMeter, MemStore};
pub use value::{InputValue, OutputValue, Value};
pub use view::{View, ViewMut};
pub use vm::{execute_plan, run_program, Mode, PlanHandle, Session};

#[cfg(test)]
mod tests;
