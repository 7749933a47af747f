//! The functional array IR (paper §II-C).
//!
//! A standard first-order functional language where parallelism is
//! expressed with `map` (generalized to kernels computing array rows),
//! plus:
//!
//! - creation of *fresh* arrays: `iota`, `scratch`, `replicate`, `copy`,
//!   `concat`, `map`;
//! - "free" index-space transformations: `reshape`, `transpose` (any
//!   permutation), slicing in triplet or LMAD notation, `reverse`;
//! - sequential `loop`s and `if`s that may return arrays;
//! - in-place slice **updates** `let A[W] = X`, whose copy the
//!   short-circuiting optimization (crate `arraymem-core`) elides.
//!
//! Memory is *not* part of the language semantics: every statement pattern
//! carries an optional [`MemBinding`] annotation which is `None` until the
//! memory-introduction pass runs, and which can be deleted without changing
//! program meaning (paper §I: memory information is an operational
//! "add-on").

pub mod alias;
pub mod builder;
pub mod exp;
pub mod lastuse;
pub mod pretty;
pub mod types;
pub mod validate;

pub use builder::Builder;
pub use exp::{loop_env, BinOp, UnOp};
pub use exp::{
    Block, Exp, MapBody, MapExp, MemBinding, PatElem, Program, ScalarExp, SliceSpec, Stm,
    UpdateSrc, Var,
};
pub use types::{Constant, ElemType, Type};

/// The memory block variable synthesized for an array *parameter*:
/// parameters arrive in caller-provided row-major blocks named
/// `<param>_mem`. This is the one canonical definition — the memory
/// passes (`arraymem-core`), the validator and the executor's lowerer
/// must all agree on it, or parameter memory would silently split into
/// distinct blocks across layers.
pub fn param_block_sym(param: Var) -> Var {
    arraymem_symbolic::sym(&format!("{param}_mem"))
}

#[cfg(test)]
mod tests;
