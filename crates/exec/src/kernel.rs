//! The kernel registry: native map bodies.
//!
//! A kernel is the runtime counterpart of the code the paper's compiler
//! generates for a map body: one call runs a range of map instances (a
//! pool chunk, or a tile of one) as one loop, with its inlined
//! index-function addressing, arguments and scratch hoisted out of it.
//!
//! **Contract** (relied on by the index analysis, §V-B): for each `i` in
//! `ctx.rows`, the kernel may write only `out[i, ..]`, and may read only
//! row `i` of each input *not* declared in the map's `whole_inputs` list;
//! declared whole inputs may be read arbitrarily. `out` is the result or,
//! for a map that is not in place, a worker-private tile addressed like
//! it, which the executor copies to the result after the call.
//!
//! **Slices.** [`KernelCtx::f32_slices`] hands a call all its memory at
//! once — inputs whole, rows `ctx.rows` of `out` as one `&mut [f32]` — if
//! every view is one f32 LMAD, every input is contiguous row-major, `out`'s
//! rows are dense row-major inside the block, and no input's span meets
//! the whole `out`'s (other calls write its other rows meanwhile). Checked
//! once per call; a kernel that takes slices addresses memory through them.
//!
//! Kernels are stored densely: registration assigns each name a stable
//! `u32` index, [`resolve`](KernelRegistry::resolve)d once at plan-lower
//! time so the executor dispatches by array index instead of a string
//! hash lookup per map statement.

use crate::value::Value;
use crate::view::{row_slices, View, ViewMut};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Per-call kernel context: the instances to run and what they address.
pub struct KernelCtx<'a> {
    /// The map instances this call runs.
    pub rows: Range<i64>,
    /// Whole input views: row `i` starts at `offset + i·dims[0].stride`.
    pub inputs: &'a [View],
    /// Scalar arguments.
    pub args: &'a [Value],
    /// The result view (rank 1 + row rank) or a private tile shaped like
    /// it: row `i` starts at `offset + i·dims[0].stride`.
    pub out: &'a ViewMut,
    /// Whether this call has handed out its slices.
    pub(crate) sliced: Cell<bool>,
}

impl KernelCtx<'_> {
    pub fn arg_i64(&self, k: usize) -> i64 {
        self.args[k].as_i64()
    }

    pub fn arg_f32(&self, k: usize) -> f32 {
        self.args[k].as_f32()
    }

    /// The inputs whole and rows `rows` of `out` (row `i` at `(i −
    /// rows.start) · row length`), once per call, or `None` if the call
    /// does not qualify (see the module doc) or took them already.
    #[allow(clippy::mut_from_ref)]
    pub fn f32_slices<const N: usize>(&self) -> Option<([&[f32]; N], &mut [f32])> {
        let first = !self.sliced.replace(true);
        first.then(|| row_slices(self.inputs, self.out, self.rows.clone()))?
    }
}

/// A kernel body. `Arc` so registries can be shared across benches.
pub type KernelFn = Arc<dyn Fn(&KernelCtx) + Send + Sync>;

/// Registry mapping kernel names (as referenced by `MapBody::Kernel`) to
/// implementations. Each name owns a dense index; re-registering a name
/// replaces the implementation but keeps the index.
#[derive(Clone, Default)]
pub struct KernelRegistry {
    kernels: Vec<KernelFn>,
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl KernelRegistry {
    pub fn new() -> KernelRegistry {
        KernelRegistry::default()
    }

    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&KernelCtx) + Send + Sync + 'static,
    {
        match self.by_name.get(name) {
            Some(&idx) => self.kernels[idx as usize] = Arc::new(f),
            None => {
                self.by_name
                    .insert(name.to_string(), self.kernels.len() as u32);
                self.kernels.push(Arc::new(f));
                self.names.push(name.to_string());
            }
        }
    }

    /// The dense index of `name`, if registered. Plans store this index;
    /// it is only meaningful against a registry with the same name→index
    /// mapping (see [`fingerprint`](KernelRegistry::fingerprint)).
    pub fn resolve(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The kernel at a dense index (panics on an unknown index).
    pub fn by_index(&self, idx: u32) -> &KernelFn {
        &self.kernels[idx as usize]
    }

    /// A hash of the name→index mapping. Two registries with equal
    /// fingerprints resolve every kernel name to the same index, so a
    /// plan lowered against one executes correctly against the other;
    /// the plan cache keys on this next to the program fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for name in &self.names {
            for b in name.as_bytes() {
                h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
            }
            h = (h ^ 0xff).wrapping_mul(0x100000001b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_stable_dense_indices() {
        let mut r = KernelRegistry::new();
        r.register("a", |_| {});
        r.register("b", |_| {});
        assert_eq!(r.resolve("a"), Some(0));
        assert_eq!(r.resolve("b"), Some(1));
        assert_eq!(r.resolve("c"), None);
        let fp = r.fingerprint();
        // Re-registering replaces the body but keeps index and fingerprint.
        r.register("a", |_| {});
        assert_eq!(r.resolve("a"), Some(0));
        assert_eq!(r.fingerprint(), fp);
        // A third name changes the fingerprint.
        r.register("c", |_| {});
        assert_eq!(r.resolve("c"), Some(2));
        assert_ne!(r.fingerprint(), fp);
    }

    /// One call hands out its slices once, so no two `&mut` of it alias.
    #[test]
    fn a_call_hands_out_its_slices_once() {
        let mut s = crate::MemStore::new();
        let b = s.alloc(arraymem_ir::ElemType::F32, 4);
        let row_major = arraymem_lmad::ConcreteIxFn::row_major(&[4]);
        let ctx = KernelCtx {
            rows: 0..4,
            inputs: &[],
            args: &[],
            out: &ViewMut::new(s.raw(b), row_major),
            sliced: Default::default(),
        };
        assert_eq!(ctx.f32_slices::<0>().map(|(_, rows)| rows.len()), Some(4));
        assert!(ctx.f32_slices::<0>().is_none());
    }
}
