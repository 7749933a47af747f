//! Memory release plans: where the VM may return a block to the store's
//! free list.
//!
//! The short-circuiting passes decide where arrays *live*; this analysis
//! decides when their blocks *die*. For every statement of every block it
//! lists the allocations of that block whose live range
//! (`liveness`) ends there — the same ranges the merge pass
//! colors, so a block is never recycled while a merge still counts it
//! live. The VM releases exactly those, and the store recycles them for
//! later allocations.
//!
//! The plan is conservative in the same ways the ranges are:
//!
//! - a touch of any mem variable that may name the block at run time (a
//!   loop's carried memory, a branch's existential result) keeps it live;
//! - touches inside nested blocks (`if`/`loop`/lambda bodies) count at
//!   the enclosing statement;
//! - only blocks bound by an `alloc` statement of the *same* block are
//!   ever released there, and never one the block's result reaches;
//!   parameter memory and memory flowing in from enclosing scopes is left
//!   to the end-of-run sweep (`MemStore::release_all_live` in the
//!   executor).

use crate::liveness::{Liveness, ESCAPES};
use arraymem_ir::{Block, Exp, Program, Var};
use std::collections::HashMap;

/// For each block of a program (keyed by address — the program must not
/// be mutated while the plan is in use), the memory variables whose block
/// may be released after each statement index.
#[derive(Default, Debug)]
pub struct ReleasePlan {
    per_block: HashMap<usize, Vec<Vec<Var>>>,
}

fn block_key(b: &Block) -> usize {
    b as *const Block as usize
}

impl ReleasePlan {
    /// Compute the release plan of a program (with or without memory
    /// annotations; a memory-free program yields an empty plan).
    pub fn compute(prog: &Program) -> ReleasePlan {
        let mut plan = ReleasePlan::default();
        plan.visit_block(&prog.body, &Liveness::of(&prog.body));
        plan
    }

    /// Memory variables to release after statement `stm_idx` of `block`.
    pub fn after(&self, block: &Block, stm_idx: usize) -> &[Var] {
        self.per_block
            .get(&block_key(block))
            .and_then(|v| v.get(stm_idx))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of scheduled release points (for tests).
    pub fn num_releases(&self) -> usize {
        self.per_block.values().flatten().map(|v| v.len()).sum()
    }

    fn visit_block(&mut self, block: &Block, lv: &Liveness) {
        let ranges = lv.live_ranges(block);
        let mut releases: Vec<Vec<Var>> = vec![Vec::new(); block.stms.len()];
        for (i, stm) in block.stms.iter().enumerate() {
            if !matches!(stm.exp, Exp::Alloc { .. }) {
                continue;
            }
            // A block dies at its last touch, and never before its own
            // `alloc` (an untouched one dies right there).
            let m = stm.pat[0].var;
            let last = ranges.get(&m).map_or(i, |r| r.1.max(i));
            if last != ESCAPES {
                releases[last].push(m);
            }
        }
        // Symbol (= creation) order: the release schedule — and hence the
        // lowered instruction stream and the store's free-list traffic —
        // must not depend on hash iteration order.
        releases.iter_mut().for_each(|r| r.sort_unstable());
        self.per_block.insert(block_key(block), releases);
        for stm in &block.stms {
            for b in stm.exp.blocks() {
                self.visit_block(b, lv);
            }
        }
    }
}
