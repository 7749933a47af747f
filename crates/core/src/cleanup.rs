//! Dead-allocation elimination: after short-circuiting rebases arrays into
//! destination memory, their original blocks may be entirely unreferenced;
//! remove those `alloc` statements (this is where the footprint reduction
//! comes from, in addition to the copy elision).

use arraymem_ir::{Block, Exp, Program, Var};
use std::collections::HashSet;

/// Remove `alloc` statements whose block variable is referenced by no
/// memory binding, expression, or block result anywhere in the program.
/// Returns the block variables of the removed allocations, which the pass
/// pipeline reports as remarks.
pub fn remove_dead_allocs(prog: &mut Program) -> Vec<Var> {
    let mut used: HashSet<Var> = HashSet::new();
    collect_used(&prog.body, &mut used);
    let mut removed = Vec::new();
    prune(&mut prog.body, &used, &mut removed);
    removed
}

fn collect_used(block: &Block, used: &mut HashSet<Var>) {
    for stm in &block.stms {
        // An alloc's own pattern var does not count as a use.
        if !matches!(stm.exp, Exp::Alloc { .. }) {
            used.extend(stm.exp.free_vars());
        }
        for pe in &stm.pat {
            if let Some(mb) = &pe.mem {
                used.insert(mb.block);
                used.extend(mb.ixfn.vars());
            }
        }
        for b in stm.exp.blocks() {
            collect_used(b, used);
        }
    }
    used.extend(block.result.iter().copied());
}

fn prune(block: &mut Block, used: &HashSet<Var>, removed: &mut Vec<Var>) {
    block.stms.retain(|stm| {
        let keep = !matches!(stm.exp, Exp::Alloc { .. }) || used.contains(&stm.pat[0].var);
        if !keep {
            removed.push(stm.pat[0].var);
        }
        keep
    });
    for stm in &mut block.stms {
        for b in stm.exp.blocks_mut() {
            prune(b, used, removed);
        }
    }
}
