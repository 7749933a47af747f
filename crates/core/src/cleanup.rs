//! Dead-allocation elimination: after short-circuiting rebases arrays into
//! destination memory, and merging moves blocks' tenants onto their
//! hosts, the original blocks may be entirely unreferenced; remove those
//! `alloc` statements (this is where the footprint reduction comes from,
//! in addition to the copy elision). An allocation is dead when it has no
//! live range (`liveness`): no statement of its block touches it
//! and the block's result does not reach it.

use crate::liveness::Liveness;
use arraymem_ir::{Block, Exp, Program, Var};

/// Remove `alloc` statements whose block no statement touches and no
/// block result reaches. Returns the block variables of the removed
/// allocations, which the pass pipeline reports as remarks.
pub fn remove_dead_allocs(prog: &mut Program) -> Vec<Var> {
    let lv = Liveness::of(&prog.body);
    let mut removed = Vec::new();
    prune(&mut prog.body, &lv, &mut removed);
    removed
}

fn prune(block: &mut Block, lv: &Liveness, removed: &mut Vec<Var>) {
    let ranges = lv.live_ranges(block);
    block.stms.retain(|stm| {
        let keep = !matches!(stm.exp, Exp::Alloc { .. }) || ranges.contains_key(&stm.pat[0].var);
        if !keep {
            removed.push(stm.pat[0].var);
        }
        keep
    });
    for stm in &mut block.stms {
        for b in stm.exp.blocks_mut() {
            prune(b, lv, removed);
        }
    }
}
