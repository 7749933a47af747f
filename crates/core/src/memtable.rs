//! The one binding table: the memory binding of every array variable —
//! pattern elements and loop merge parameters at every depth, and the
//! caller-provided row-major block of each array *parameter*. Every pass
//! that asks "where does this array live" reads it from here.

use arraymem_ir::{param_block_sym, Block, MemBinding, Program, Var};
use arraymem_lmad::IndexFn;
use std::collections::HashMap;

#[derive(Clone, Default, Debug)]
pub struct MemTable {
    bindings: HashMap<Var, MemBinding>,
}

impl MemTable {
    /// The table of a whole program: parameters, then every annotation of
    /// the body (none yet for a program memory introduction has not seen).
    pub fn build(prog: &Program) -> MemTable {
        let mut t = MemTable::default();
        for (v, ty) in &prog.params {
            if ty.is_array() {
                let block = param_block_sym(*v);
                let ixfn = IndexFn::row_major(ty.shape());
                t.insert(*v, MemBinding { block, ixfn });
            }
        }
        t.add_block(&prog.body);
        t
    }

    /// The annotations inside one block only (no parameters).
    pub(crate) fn of_block(block: &Block) -> MemTable {
        let mut t = MemTable::default();
        t.add_block(block);
        t
    }

    fn add_block(&mut self, block: &Block) {
        block.for_each_stm(&mut |stm| {
            for pe in stm.bound() {
                if let Some(mb) = &pe.mem {
                    self.insert(pe.var, mb.clone());
                }
            }
        });
    }

    pub fn get(&self, v: Var) -> Option<&MemBinding> {
        self.bindings.get(&v)
    }

    pub fn insert(&mut self, v: Var, mb: MemBinding) {
        self.bindings.insert(v, mb);
    }

    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Var, &MemBinding)> {
        self.bindings.iter().map(|(v, mb)| (*v, mb))
    }
}
