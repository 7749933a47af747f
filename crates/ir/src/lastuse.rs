//! Last use of an array *value* (paper §V, footnote 18): whether an
//! alias class can still be used on some path after a statement — what
//! short-circuiting asks of a candidate's source.
//!
//! The analysis is conservative: a use of *any* member of an alias class
//! counts as a use of the class, and nested blocks (loop/if/map bodies)
//! count as uses at their enclosing statement. When a memory *block* is
//! last touched is a different question, answered from the memory
//! annotations by the middle-end's one liveness (`arraymem-core`).

use crate::alias::AliasMap;
use crate::exp::{Block, Var};
use std::collections::HashSet;

/// True if alias class of `v` is used by any statement at index > `at`, or
/// escapes via the block result / `live_after`.
pub fn used_after(
    block: &Block,
    at: usize,
    v: Var,
    live_after: &HashSet<Var>,
    am: &AliasMap,
) -> bool {
    let root = am.root(v);
    if live_after.contains(&root) {
        return true;
    }
    if block.result.iter().any(|r| am.root(*r) == root) {
        return true;
    }
    block.stms[at + 1..]
        .iter()
        .any(|s| s.exp.free_vars().iter().any(|u| am.root(*u) == root))
}
