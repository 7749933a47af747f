//! Alias analysis: which array variables may share memory.
//!
//! Change-of-layout transforms alias their source; `if`/`loop` results
//! alias the arrays flowing through them; updates alias (and consume)
//! their destination. Fresh-array constructors (`iota`, `scratch`,
//! `replicate`, `copy`, `concat`, `map`) alias nothing.

use crate::exp::{Exp, Program, Var};
use std::collections::HashMap;

/// Union-find over variables; `root(v)` identifies v's alias class.
#[derive(Clone, Default, Debug)]
pub struct AliasMap {
    parent: HashMap<Var, Var>,
}

impl AliasMap {
    pub fn root(&self, v: Var) -> Var {
        let mut cur = v;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur
    }

    fn union(&mut self, a: Var, b: Var) {
        let ra = self.root(a);
        let rb = self.root(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    pub fn same_class(&self, a: Var, b: Var) -> bool {
        self.root(a) == self.root(b)
    }
}

/// Compute the alias classes of a program.
pub fn aliases(prog: &Program) -> AliasMap {
    let mut am = AliasMap::default();
    // Seed every parameter and bound variable as its own class.
    for (v, _) in &prog.params {
        am.parent.insert(*v, *v);
    }
    prog.body.for_each_stm(&mut |stm| {
        for pe in stm.bound() {
            am.parent.entry(pe.var).or_insert(pe.var);
        }
        match &stm.exp {
            Exp::Transform { src, .. } => am.union(stm.pat[0].var, *src),
            Exp::Update { dst, .. } => am.union(stm.pat[0].var, *dst),
            Exp::If { then_b, else_b, .. } => {
                for (pe, (t, e)) in stm.pat.iter().zip(then_b.result.iter().zip(&else_b.result)) {
                    if pe.ty.is_array() {
                        am.union(pe.var, *t);
                        am.union(pe.var, *e);
                    }
                }
            }
            Exp::Loop {
                params,
                inits,
                body,
                ..
            } => {
                let flows = inits.iter().zip(&body.result).zip(&stm.pat);
                for (pp, ((init, r), pe)) in params.iter().zip(flows) {
                    if pp.ty.is_array() {
                        am.union(pp.var, *init);
                        am.union(pp.var, *r);
                        am.union(pe.var, pp.var);
                    }
                }
            }
            _ => {}
        }
    });
    am
}
