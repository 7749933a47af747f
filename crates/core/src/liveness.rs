//! Block lifetimes: the one answer to "when is this block touched".
//!
//! Every memory block of an annotated program lives from the first
//! statement that touches it to the last one. Two things define that
//! range, and they are defined here only:
//!
//! - which blocks a statement touches ([`Liveness::touched_blocks`]):
//!   the block of every binding it makes at any depth, the block of
//!   every array it reads, and every mem variable it names as an operand;
//! - which mem variables can name one runtime block ([`MemAliases`]): a
//!   loop's mem merge parameter, its initializer, its per-iteration
//!   result and the loop's output; a branch output and both branch
//!   results.
//!
//! [`Liveness::live_ranges`] combines the two into the first and last
//! touching statement of each allocation a block makes. Release planning
//! ([`crate::release`]), the merge pass's interval scan
//! ([`crate::merge`]) and dead-allocation cleanup ([`crate::cleanup`])
//! all read those ranges; carried releases ask
//! [`Liveness::touched_blocks`] directly.
//!
//! The analysis reads the memory annotations and nothing else, so it is
//! only as sound as they are truthful: an array must be annotated with the
//! block it really lives in. `validate_memory` checks the one place where
//! an annotation is a *claim* rather than a binding — the block a loop
//! body yields for an array merge parameter must be the block the yielded
//! array lives in.

use arraymem_ir::{Block, Exp, PatElem, Stm, Type, Var};
use std::collections::HashMap;

/// Union-find over memory variables: two mem vars land in one class when
/// a loop or branch can make them name the same runtime block. A block's
/// liveness counts every touch of its class.
struct MemAliases {
    parent: HashMap<Var, Var>,
}

impl MemAliases {
    /// The alias classes of a whole program body.
    fn build(block: &Block) -> MemAliases {
        let mut uf = MemAliases {
            parent: HashMap::new(),
        };
        block.for_each_stm(&mut |stm| match &stm.exp {
            Exp::If { then_b, else_b, .. } => {
                for (k, pe) in stm.pat.iter().enumerate() {
                    if matches!(pe.ty, Type::Mem) {
                        for b in [then_b, else_b] {
                            if let Some(r) = b.result.get(k) {
                                uf.union(pe.var, *r);
                            }
                        }
                    }
                }
            }
            Exp::Loop {
                params,
                inits,
                body,
                ..
            } => {
                for (k, pp) in params.iter().enumerate() {
                    if matches!(pp.ty, Type::Mem) {
                        // Iteration n+1's parameter is iteration n's
                        // result; the loop output is the last one.
                        let flows = [
                            inits.get(k),
                            body.result.get(k),
                            stm.pat.get(k).map(|pe| &pe.var),
                        ];
                        for v in flows.into_iter().flatten() {
                            uf.union(pp.var, *v);
                        }
                    }
                }
            }
            _ => {}
        });
        // Point every member straight at its root: lookups are then one
        // probe, however long the chains the unions built (a run of loops,
        // each fed by the one before, adds a link per loop).
        let roots = uf.parent.keys().map(|&v| (v, uf.find(v))).collect();
        uf.parent = roots;
        uf
    }

    /// The representative of `v`'s class.
    fn find(&self, mut v: Var) -> Var {
        while let Some(&p) = self.parent.get(&v) {
            v = p;
        }
        v
    }

    fn union(&mut self, a: Var, b: Var) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// The block a binding is annotated into, if any.
pub(crate) fn block_of(pe: &PatElem) -> Option<Var> {
    pe.mem.as_ref().map(|mb| mb.block)
}

/// The block's result reaches an allocation: it outlives the block.
pub(crate) const ESCAPES: usize = usize::MAX;

/// Everything a block lifetime is read from, for one program body: the
/// block each array bound in it lives in (at any depth), and its
/// [`MemAliases`].
pub(crate) struct Liveness {
    homes: HashMap<Var, Var>,
    aliases: MemAliases,
}

impl Liveness {
    /// The liveness of a whole program body.
    pub(crate) fn of(body: &Block) -> Liveness {
        Liveness {
            homes: body.homes(),
            aliases: MemAliases::build(body),
        }
    }

    /// The block `v` names: the one the array `v` lives in, or `v` itself
    /// (a mem variable).
    pub(crate) fn home(&self, v: Var) -> Var {
        self.homes.get(&v).copied().unwrap_or(v)
    }

    /// The representative of the alias class of mem variable `m`.
    pub(crate) fn class(&self, m: Var) -> Var {
        self.aliases.find(m)
    }

    /// Every memory block a statement may touch: the block of each
    /// binding it makes at any depth (pattern elements, merge parameters,
    /// nested tenants — what `Exp::free_vars` cannot surface), the block
    /// of each array it uses, and each mem var it names as an operand (a
    /// loop initializer). An `alloc` does not touch the block it creates.
    pub(crate) fn touched_blocks(&self, stm: &Stm) -> Vec<Var> {
        let mut out: Vec<Var> = stm.bound().filter_map(block_of).collect();
        out.extend(stm.exp.free_vars().into_iter().map(|u| self.home(u)));
        for nested in stm.exp.blocks() {
            nested.for_each_stm(&mut |s| out.extend(s.bound().filter_map(block_of)));
        }
        out
    }

    /// The live range of each allocation `block` itself makes: the index
    /// of the first and of the last statement of `block` touching it
    /// through any alias ([`ESCAPES`] for either when none does; `last`
    /// is [`ESCAPES`] when the block's result reaches it). An allocation
    /// nothing touches has no entry.
    pub(crate) fn live_ranges(&self, block: &Block) -> HashMap<Var, (usize, usize)> {
        // The allocations of this block in each alias class.
        let mut class: HashMap<Var, Vec<Var>> = HashMap::new();
        for stm in &block.stms {
            if matches!(stm.exp, Exp::Alloc { .. }) {
                let m = stm.pat[0].var;
                class.entry(self.class(m)).or_default().push(m);
            }
        }
        let mut ranges: HashMap<Var, (usize, usize)> = HashMap::new();
        if class.is_empty() {
            return ranges;
        }
        let mut touch = |b: Var, i: usize| {
            for &m in class.get(&self.class(b)).into_iter().flatten() {
                ranges.entry(m).or_insert((i, i)).1 = i;
            }
        };
        for (i, stm) in block.stms.iter().enumerate() {
            for b in self.touched_blocks(stm) {
                touch(b, i);
            }
        }
        for r in &block.result {
            touch(self.home(*r), ESCAPES);
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arraymem_ir::{Constant, ElemType, MemBinding, ScalarExp};
    use arraymem_lmad::{IndexFn, Transform};
    use arraymem_symbolic::{sym, Poly};

    fn n() -> Poly {
        Poly::var(sym("lv_n"))
    }

    fn stm(pat: Vec<PatElem>, exp: Exp) -> Stm {
        Stm { pat, exp }
    }

    fn mem(v: Var) -> PatElem {
        PatElem::new(v, Type::Mem)
    }

    /// A row-major `[n]f32` array annotated into `block`.
    fn arr(v: Var, block: Var) -> PatElem {
        PatElem {
            var: v,
            ty: Type::array(ElemType::F32, vec![n()]),
            mem: Some(MemBinding {
                block,
                ixfn: IndexFn::row_major(&[n()]),
            }),
        }
    }

    fn alloc(m: Var) -> Stm {
        let (elem, size) = (ElemType::F32, n());
        stm(vec![mem(m)], Exp::Alloc { elem, size })
    }

    fn fill(v: Var, block: Var) -> Stm {
        let (elem, shape) = (ElemType::F32, vec![n()]);
        stm(vec![arr(v, block)], Exp::Scratch { elem, shape })
    }

    fn read(s: Var, v: Var) -> Stm {
        let pe = PatElem::new(s, Type::Scalar(ElemType::F32));
        stm(
            vec![pe],
            Exp::Scalar(ScalarExp::Index(v, vec![ScalarExp::i64(0)])),
        )
    }

    fn block(stms: Vec<Stm>, result: Vec<Var>) -> Block {
        Block { stms, result }
    }

    /// `(om, o @ om) = loop (m = init_mem, p @ m = init) { body }`.
    fn loop_stm(
        om: Var,
        o: Var,
        (m, init_mem): (Var, Var),
        (p, init): (Var, Var),
        body: Block,
    ) -> Stm {
        stm(
            vec![mem(om), arr(o, om)],
            Exp::Loop {
                params: vec![mem(m), arr(p, m)],
                inits: vec![init_mem, init],
                index: sym("lv_i"),
                count: n(),
                body,
            },
        )
    }

    fn ranges(body: &Block) -> HashMap<Var, (usize, usize)> {
        Liveness::of(body).live_ranges(body)
    }

    /// (a) A loop yielding an array bound outside it: the loop's output
    /// may be that array, so the outer block lives as long as the output
    /// is read — past the first touch of a block allocated after the loop.
    #[test]
    fn a_loop_yielding_an_outer_array_keeps_its_block_live() {
        let [o_mem, i_mem, t_mem, outer, init, fm, f, m, p, t, sf, st] = [
            "O", "I", "T", "outer", "init", "fm", "f", "m", "p", "t", "sf", "st",
        ]
        .map(|s| sym(&format!("lva_{s}")));
        let body = block(
            vec![
                alloc(o_mem),
                alloc(i_mem),
                alloc(t_mem),
                fill(outer, o_mem),
                fill(init, i_mem),
                loop_stm(
                    fm,
                    f,
                    (m, i_mem),
                    (p, init),
                    block(vec![], vec![o_mem, outer]),
                ),
                fill(t, t_mem),
                read(sf, f),
                read(st, t),
            ],
            vec![sf, st],
        );
        let r = ranges(&body);
        // O and I may both be the loop's output, so they live together.
        assert_eq!(r[&o_mem], (3, 7));
        assert_eq!(r[&i_mem], (3, 7));
        assert_eq!(r[&t_mem], (6, 8));
    }

    /// (b) An `if` whose branches yield different blocks: a read of its
    /// result is a touch of both.
    #[test]
    fn b_branches_yielding_different_blocks_both_stay_live() {
        let [a_mem, b_mem, x, y, im, z, s] =
            ["A", "B", "x", "y", "im", "z", "s"].map(|s| sym(&format!("lvb_{s}")));
        let pick = Exp::If {
            cond: ScalarExp::Const(Constant::Bool(true)),
            then_b: block(vec![], vec![a_mem, x]),
            else_b: block(vec![], vec![b_mem, y]),
        };
        let body = block(
            vec![
                alloc(a_mem),
                alloc(b_mem),
                fill(x, a_mem),
                fill(y, b_mem),
                stm(vec![mem(im), arr(z, im)], pick),
                read(s, z),
            ],
            vec![s],
        );
        let r = ranges(&body);
        // Either may be the `if`'s result, so they live together.
        assert_eq!(r[&a_mem], (2, 5));
        assert_eq!(r[&b_mem], (2, 5));
    }

    /// (c) A mem variable passed as a loop initializer is touched by the
    /// loop, and lives as long as the loop's output is read; the body's
    /// own yield block outlives the body.
    #[test]
    fn c_a_loop_initializer_lives_through_the_loop_output() {
        let [a_mem, y_mem, x, s, om, o, m, p, q, r] =
            ["A", "Y", "x", "s", "om", "o", "m", "p", "q", "r"].map(|s| sym(&format!("lvc_{s}")));
        let body = block(
            vec![alloc(y_mem), stm(vec![arr(q, y_mem)], Exp::Copy(p))],
            vec![y_mem, q],
        );
        let prog = block(
            vec![
                alloc(a_mem),
                fill(x, a_mem),
                read(s, x),
                loop_stm(om, o, (m, a_mem), (p, x), body),
                read(r, o),
            ],
            vec![s, r],
        );
        let lv = Liveness::of(&prog);
        assert!(lv.touched_blocks(&prog.stms[3]).contains(&a_mem));
        assert_eq!(lv.live_ranges(&prog)[&a_mem], (1, 4));
        let Exp::Loop { body, .. } = &prog.stms[3].exp else {
            unreachable!()
        };
        assert_eq!(lv.live_ranges(body)[&y_mem], (1, ESCAPES));
    }

    /// (d) A block backing a program result outlives the program body; an
    /// allocation nothing touches has no range at all.
    #[test]
    fn d_a_result_block_escapes_and_an_untouched_one_has_no_range() {
        let [a_mem, dead, x] = ["A", "D", "x"].map(|s| sym(&format!("lvd_{s}")));
        let body = block(vec![alloc(a_mem), alloc(dead), fill(x, a_mem)], vec![x]);
        let r = ranges(&body);
        assert_eq!(r[&a_mem], (2, ESCAPES));
        assert!(!r.contains_key(&dead));
    }

    /// (e) A transform touches its source's block, and so does every read
    /// of the transformed array.
    #[test]
    fn e_a_transform_touches_its_source_block() {
        let [a_mem, x, xt, s] = ["A", "x", "xt", "s"].map(|s| sym(&format!("lve_{s}")));
        let tr = Transform::Reshape(vec![n()]);
        let body = block(
            vec![
                alloc(a_mem),
                fill(x, a_mem),
                stm(vec![arr(xt, a_mem)], Exp::Transform { src: x, tr }),
                read(s, xt),
            ],
            vec![s],
        );
        let lv = Liveness::of(&body);
        assert_eq!(lv.touched_blocks(&body.stms[2]), vec![a_mem, a_mem]);
        assert_eq!(ranges(&body)[&a_mem], (1, 3));
    }
}
