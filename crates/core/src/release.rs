//! Memory release plans: where the VM may return a block to the store's
//! free list.
//!
//! The short-circuiting passes decide where arrays *live*; this analysis
//! decides when their blocks *die*. It threads the IR's alias analysis
//! ([`arraymem_ir::alias`]) and the last-use discipline of
//! [`arraymem_ir::lastuse`] down to the runtime: for every statement of
//! every block, which locally-allocated memory blocks have provably seen
//! their final use once the statement completes. The VM releases exactly
//! those, and the store recycles them for later allocations.
//!
//! The plan is conservative in the same ways the last-use analysis is:
//!
//! - a use of *any* member of an alias class keeps every memory block
//!   associated with the class alive (rebased webs associate one class
//!   with several block variables — all stay live together);
//! - uses inside nested blocks (`if`/`loop`/lambda bodies) count at the
//!   enclosing statement;
//! - only blocks bound by an `alloc` statement of the *same* block are
//!   ever released there; parameter memory and memory flowing in from
//!   enclosing scopes is left to the end-of-run sweep
//!   (`MemStore::release_all_live` in the executor).

use crate::memtable::MemTable;
use arraymem_ir::alias::{aliases, AliasMap};
use arraymem_ir::{Block, Exp, Program, Stm, Var};
use std::collections::{HashMap, HashSet};

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
        let am = aliases(prog);
        // Associate every array variable with the memory variables its
        // pattern annotations name, then lift to alias-class roots: a use
        // of any class member is a use of all the class's blocks.
        let mut class_mems: HashMap<Var, Vec<Var>> = HashMap::new();
        for (v, mb) in MemTable::of_block(&prog.body).iter() {
            let e = class_mems.entry(am.root(v)).or_default();
            if !e.contains(&mb.block) {
                e.push(mb.block);
            }
        }
        let mut plan = ReleasePlan::default();
        plan.visit_block(&prog.body, &am, &class_mems);
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

    fn visit_block(&mut self, block: &Block, am: &AliasMap, class_mems: &HashMap<Var, Vec<Var>>) {
        // Blocks releasable here: those allocated here.
        let locals: HashSet<Var> = block
            .stms
            .iter()
            .filter(|s| matches!(s.exp, Exp::Alloc { .. }))
            .map(|s| s.pat[0].var)
            .collect();
        // Everything the block returns (or that shares a class with a
        // result) stays live past the block's end.
        let mut needed: HashSet<Var> = HashSet::new();
        for r in &block.result {
            needed.insert(*r);
            if let Some(ms) = class_mems.get(&am.root(*r)) {
                needed.extend(ms.iter().copied());
            }
        }
        let mut releases: Vec<Vec<Var>> = vec![Vec::new(); block.stms.len()];
        for (k, stm) in block.stms.iter().enumerate().rev() {
            let mut uses: HashSet<Var> = HashSet::new();
            mem_uses(stm, am, class_mems, &mut uses);
            // Iterate in symbol (= creation) order: the release schedule —
            // and hence the lowered instruction stream and the store's
            // free-list traffic — must not depend on hash iteration order.
            let mut uses: Vec<Var> = uses.into_iter().collect();
            uses.sort_unstable();
            for m in uses {
                if locals.contains(&m) && needed.insert(m) {
                    releases[k].push(m);
                }
            }
        }
        self.per_block.insert(block_key(block), releases);
        for stm in &block.stms {
            for b in stm.exp.blocks() {
                self.visit_block(b, am, class_mems);
            }
        }
    }
}

/// Memory variables `stm` keeps alive: blocks named by its pattern (and
/// loop-parameter) annotations, its own binding if it is an `alloc`, and
/// every block associated with the alias class of any free variable —
/// nested blocks included, via `Exp::free_vars`.
fn mem_uses(stm: &Stm, am: &AliasMap, class_mems: &HashMap<Var, Vec<Var>>, out: &mut HashSet<Var>) {
    out.extend(
        stm.bound()
            .filter_map(|pe| pe.mem.as_ref().map(|mb| mb.block)),
    );
    if matches!(stm.exp, Exp::Alloc { .. }) {
        out.insert(stm.pat[0].var);
    }
    for v in stm.exp.free_vars() {
        // `v` itself may be a memory variable (annotations of nested
        // blocks surface through free_vars); non-memory variables are
        // harmless — they never match an alloc-bound local.
        out.insert(v);
        if let Some(ms) = class_mems.get(&am.root(v)) {
            out.extend(ms.iter().copied());
        }
    }
}
