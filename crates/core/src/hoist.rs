//! Allocation hoisting (paper §V, property 2): move `alloc` statements —
//! and the pure scalar statements their sizes depend on — as early in
//! their block as data dependencies allow, so that a destination's memory
//! is already in scope when a short-circuit candidate's fresh array is
//! defined.

use arraymem_ir::{Block, Exp, Program, Stm};

/// Hoist allocations in every block of the program. Returns the number of
/// statements the hoisted ones moved above (0 = the program was already
/// hoisted), which the pass pipeline reports as a remark.
pub fn hoist_allocations(prog: &mut Program) -> usize {
    hoist_block(&mut prog.body)
}

fn hoist_block(block: &mut Block) -> usize {
    let mut moved = 0;
    for stm in &mut block.stms {
        for b in stm.exp.blocks_mut() {
            moved += hoist_block(b);
        }
    }
    // One stable placement, in statement order. A hoistable statement (an
    // `alloc` or a pure scalar definition: sizes) goes directly after the
    // last earlier statement that defines something it uses, behind the
    // hoistables already placed there; the rest keep their order. Placing
    // the result again moves nothing.
    let mut placed = Vec::with_capacity(block.stms.len());
    for stm in std::mem::take(&mut block.stms) {
        let mut at = placed.len();
        if hoistable(&stm.exp) {
            let uses = stm.exp.free_vars();
            let defines = |s: &Stm| s.pat.iter().any(|p| uses.contains(&p.var));
            at = placed.iter().rposition(defines).map_or(0, |k| k + 1);
            while at < placed.len() && hoistable(&placed[at].exp) {
                at += 1;
            }
        }
        moved += placed.len() - at;
        placed.insert(at, stm);
    }
    block.stms = placed;
    moved
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
