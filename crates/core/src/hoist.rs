//! Allocation hoisting (paper §V, property 2): move `alloc` statements —
//! and the pure scalar statements their sizes depend on — as early in
//! their block as data dependencies allow, so that a destination's memory
//! is already in scope when a short-circuit candidate's fresh array is
//! defined.

use arraymem_ir::{Block, Exp, Program, Var};
use std::collections::HashSet;

/// Hoist allocations in every block of the program. Returns the number of
/// upward swaps performed (0 = the program was already hoisted), which the
/// pass pipeline reports as a remark.
pub fn hoist_allocations(prog: &mut Program) -> usize {
    hoist_block(&mut prog.body)
}

fn hoist_block(block: &mut Block) -> usize {
    let mut swaps = 0;
    for stm in &mut block.stms {
        for b in stm.exp.blocks_mut() {
            swaps += hoist_block(b);
        }
    }
    // Stable partition by repeatedly bubbling hoistable statements above
    // non-dependent predecessors. A statement is hoistable if it is an
    // `alloc` or a pure scalar definition (sizes). O(n²) worst case on
    // block length, which is small.
    let n = block.stms.len();
    for _ in 0..n {
        let mut moved = false;
        for k in 1..block.stms.len() {
            if !hoistable(&block.stms[k].exp) {
                continue;
            }
            let defs_prev: HashSet<Var> = block.stms[k - 1].pat.iter().map(|p| p.var).collect();
            let uses: Vec<Var> = block.stms[k].exp.free_vars();
            if uses.iter().any(|v| defs_prev.contains(v)) {
                continue;
            }
            // Also do not move above another hoistable that is already as
            // high as possible — swapping equals is fine but can loop;
            // the `moved` flag with a bounded outer loop prevents that.
            block.stms.swap(k - 1, k);
            moved = true;
            swaps += 1;
        }
        if !moved {
            break;
        }
    }
    swaps
}

fn hoistable(e: &Exp) -> bool {
    matches!(e, Exp::Alloc { .. }) || matches!(e, Exp::Scalar(se) if scalar_pure(se))
}

fn scalar_pure(e: &arraymem_ir::ScalarExp) -> bool {
    use arraymem_ir::ScalarExp as S;
    match e {
        S::Const(_) | S::Var(_) | S::Size(_) => true,
        S::Bin(_, a, b) => scalar_pure(a) && scalar_pure(b),
        S::Un(_, a) => scalar_pure(a),
        // Array reads cannot be reordered across updates.
        S::Index(..) => false,
        S::Select(c, t, f) => scalar_pure(c) && scalar_pure(t) && scalar_pure(f),
    }
}
