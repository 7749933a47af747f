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
//! Kernels are stored densely: registration assigns each name a stable
//! `u32` index, [`resolve`](KernelRegistry::resolve)d once at plan-lower
//! time so the executor dispatches by array index instead of a string
//! hash lookup per map statement.

use crate::value::Value;
use crate::view::{View, ViewMut};
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
}

impl KernelCtx<'_> {
    pub fn arg_i64(&self, k: usize) -> i64 {
        self.args[k].as_i64()
    }

    pub fn arg_f32(&self, k: usize) -> f32 {
        self.args[k].as_f32()
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
        self.register_arc(name, Arc::new(f));
    }

    fn register_arc(&mut self, name: &str, f: KernelFn) {
        match self.by_name.get(name) {
            Some(&idx) => self.kernels[idx as usize] = f,
            None => {
                let idx = self.kernels.len() as u32;
                self.kernels.push(f);
                self.names.push(name.to_string());
                self.by_name.insert(name.to_string(), idx);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&KernelFn> {
        self.by_name.get(name).map(|&i| &self.kernels[i as usize])
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

    /// Merge another registry into this one.
    pub fn extend(&mut self, other: &KernelRegistry) {
        for (name, f) in other.names.iter().zip(&other.kernels) {
            self.register_arc(name, Arc::clone(f));
        }
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

    #[test]
    fn extend_preserves_resolution() {
        let mut a = KernelRegistry::new();
        a.register("x", |_| {});
        let mut b = KernelRegistry::new();
        b.register("y", |_| {});
        a.extend(&b);
        assert!(a.get("x").is_some());
        assert!(a.get("y").is_some());
        assert_eq!(a.resolve("y"), Some(1));
    }
}
