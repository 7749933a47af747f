//! The kernel registry: native map bodies.
//!
//! A kernel is the runtime counterpart of the code the paper's compiler
//! generates for a map body: one call runs a range of map instances (a
//! pool chunk, or a tile of one) as one loop, its arguments and scratch
//! hoisted out of it. The layout is the executor's: a kernel sees no index
//! function, only memory in two forms, checked per slice or per run, never
//! per element, and allocating nothing:
//!
//! - *whole slices*: [`KernelCtx::input`] is an input as `&[T]` if it is
//!   one contiguous LMAD of `T` whose span does not meet the whole `out`'s
//!   (other calls write its other rows meanwhile), and
//!   [`KernelCtx::rows_mut`] the call's rows of `out` as one `&mut [T]` if
//!   they are dense row-major;
//! - *staged rows*, for views that are strided or alias `out`:
//!   [`KernelCtx::read_row`] copies row `i` of an input into a dense
//!   buffer, [`KernelCtx::write_row`] a buffer into row `i` of `out`.
//!
//! **Contract** (relied on by the index analysis, §V-B): for each `i` in
//! `ctx.rows`, the kernel may write only `out[i, ..]`, and may read only
//! row `i` of each input *not* declared in the map's `whole_inputs` list.
//! `out` is the result or, for a map that is not in place, a worker-private
//! tile addressed like it. The write half is enforced: `write_row` outside
//! the call's rows panics (the request's error), and `rows_mut` hands out
//! the call's rows only, once, never beside `write_row`; once they are out,
//! `read_row` refuses an input that meets `out`.
//!
//! Registration gives each name a stable dense `u32` index,
//! [`resolve`](KernelRegistry::resolve)d once at plan-lower time.

use crate::value::Value;
use crate::view::{Elem, View, ViewMut};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Per-call kernel context: the instances to run, their arguments and
/// their memory.
pub struct KernelCtx<'a> {
    /// The map instances this call runs.
    pub rows: Range<i64>,
    /// Scalar arguments.
    pub args: &'a [Value],
    /// Whole input views; row `i` is the outer dimension fixed at `i`.
    pub(crate) inputs: &'a [View],
    /// The result view (rank 1 + row rank) or a private tile like it.
    pub(crate) out: &'a ViewMut,
    /// Whether this call has handed out its rows, and written a row.
    pub(crate) sliced: Cell<bool>,
    pub(crate) staged: Cell<bool>,
}

impl KernelCtx<'_> {
    pub fn arg_i64(&self, k: usize) -> i64 {
        self.args[k].as_i64()
    }

    pub fn arg_f32(&self, k: usize) -> f32 {
        self.args[k].as_f32()
    }

    /// Input `k` whole, or `None` (see the module doc).
    pub fn input<T: Elem>(&self, k: usize) -> Option<&[T]> {
        let v = &self.inputs[k];
        (v.elem() == T::TYPE && !v.meets(self.out)).then(|| v.as_slice())?
    }

    /// Rows `rows` of `out`, row `i` at `(i − rows.start)·row length`, or
    /// `None` (see the module doc).
    #[allow(clippy::mut_from_ref)]
    pub fn rows_mut<T: Elem>(&self) -> Option<&mut [T]> {
        let free = !self.sliced.get() && !self.staged.get();
        let rows = free.then(|| self.out.rows_mut(self.rows.clone()))??;
        self.sliced.set(true);
        Some(rows)
    }

    /// Copy row `i` of input `k` into `buf` (dense, row-major, the row's
    /// length). A declared-whole input may give any row.
    pub fn read_row<T: Elem>(&self, k: usize, i: i64, buf: &mut [T]) {
        let held = self.sliced.get() && self.inputs[k].meets(self.out);
        assert!(!held, "input {k} meets the rows of out held");
        self.inputs[k].read_row(i, buf)
    }

    /// Copy `buf` into row `i` of `out`.
    pub fn write_row<T: Elem>(&self, i: i64, buf: &[T]) {
        assert!(self.rows.contains(&i), "row {i} outside its rows");
        assert!(!self.sliced.get(), "row {i} written while held");
        self.staged.set(true);
        self.out.write_row(i, buf)
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
    use crate::{InputValue, MemStore};
    use arraymem_ir::ElemType;
    use arraymem_lmad::{ConcreteIxFn, ConcreteLmad, Dim};

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

    fn call<'a>(rows: Range<i64>, inputs: &'a [View], out: &'a ViewMut) -> KernelCtx<'a> {
        let (args, sliced, staged) = (&[], Cell::default(), Cell::default());
        KernelCtx {
            rows,
            args,
            inputs,
            out,
            sliced,
            staged,
        }
    }

    /// A view of `block` with LMAD `offset + {dims}`.
    fn lmad_view(s: &mut MemStore, block: usize, offset: i64, dims: &[(i64, i64)]) -> ViewMut {
        let dims = dims.iter().map(|&(card, stride)| Dim { card, stride });
        let lmad = ConcreteLmad {
            offset,
            dims: dims.collect(),
        };
        ViewMut::new(s.raw(block), ConcreteIxFn::from_lmad(lmad))
    }

    /// A kernel call's slices: a direct map's rows of its result, and a
    /// buffered map's rows in a private tile whose LMAD offset is negative
    /// (worker 1's two-row tile holds rows 6..8, so the offset is
    /// `(1·2 − 6)·3`); rows outside the tile's block are refused.
    #[test]
    fn rows_mut_takes_a_calls_rows() {
        let mut s = MemStore::new();
        let [a, b, t] = [0; 3].map(|_| s.alloc(ElemType::F32, 12));
        let input = [(*lmad_view(&mut s, a, 0, &[(4, 3), (3, 1)])).clone()];
        let out = lmad_view(&mut s, b, 0, &[(4, 3), (3, 1)]);
        let ctx = call(1..3, &input, &out);
        let (whole, rows) = (ctx.input::<f32>(0).unwrap(), ctx.rows_mut::<f32>().unwrap());
        assert_eq!((whole.len(), rows.len()), (12, 6));
        rows[0] = 5.0;
        assert_eq!(out.get(3).as_f32(), 5.0, "row 1 starts at element 3");
        let tile = lmad_view(&mut s, t, -12, &[(8, 3), (3, 1)]);
        let ctx = call(6..8, &input, &tile);
        ctx.rows_mut::<f32>().unwrap().fill(1.0);
        let block = View::new(s.raw(t), ConcreteIxFn::row_major(&[12]));
        let got: Vec<f32> = (0..12).map(|f| block.get(f).as_f32()).collect();
        assert_eq!(got[6..], [1.0; 6], "rows 6..8 are the tile's second slot");
        let ctx = call(2..4, &input, &tile);
        assert!(ctx.rows_mut::<f32>().is_none());
    }

    /// What a kernel call must not get as slices: an input whose span
    /// meets rows of `out` that another call writes, a strided NW-shaped
    /// `out` (a 2×2 block of a 4-wide matrix), and an input of another
    /// element type — which is a slice of its own type.
    #[test]
    fn slices_refuse_what_does_not_qualify() {
        let mut s = MemStore::new();
        let [b, c] = [0; 2].map(|_| s.alloc(ElemType::F32, 12));
        let ints = s.alloc(ElemType::I64, 4);
        let out = lmad_view(&mut s, b, 0, &[(4, 3), (3, 1)]);
        let inputs = [
            (*lmad_view(&mut s, b, 9, &[(1, 3), (3, 1)])).clone(),
            (*lmad_view(&mut s, c, 9, &[(1, 3), (3, 1)])).clone(),
            View::new(s.raw(ints), ConcreteIxFn::row_major(&[4])),
        ];
        let ctx = call(0..2, &inputs, &out);
        assert!(ctx.input::<f32>(0).is_none(), "row 3 meets out");
        assert!(ctx.input::<f32>(1).is_some());
        assert!(ctx.input::<f32>(2).is_none());
        assert_eq!(ctx.input::<i64>(2).map(<[_]>::len), Some(4));
        assert!(ctx.rows_mut::<f32>().is_some());
        let block = lmad_view(&mut s, b, 5, &[(2, 4), (2, 1)]);
        assert!(call(0..2, &[], &block).rows_mut::<f32>().is_none());
        let one = call(1..2, &[], &block);
        assert!(one.rows_mut::<f32>().is_some(), "one row is dense");
    }

    /// NW's in-place call: its bars and its blocks are views of one 5×5
    /// matrix (`n` 5, `b` 2, the diagonal of two blocks from `i·b = 2`).
    /// The bars are strided, and the second block's horizontal bar alone —
    /// contiguous — lies between the first block's rows, so no bar is a
    /// slice (one of another block is); the call stages them.
    #[test]
    fn an_nw_shaped_call_stages_its_rows() {
        let mut s = MemStore::new();
        let data = InputValue::ArrayI64((0..25).collect());
        let a = s.alloc_input(ElemType::I64, 25, &data).unwrap();
        let elsewhere = s.alloc(ElemType::I64, 25);
        let bars = [
            (*lmad_view(&mut s, a, 2, &[(2, 8), (3, 5)])).clone(),
            (*lmad_view(&mut s, a, 3, &[(2, 8), (2, 1)])).clone(),
            (*lmad_view(&mut s, a, 11, &[(1, 2), (2, 1)])).clone(),
            (*lmad_view(&mut s, elsewhere, 11, &[(1, 2), (2, 1)])).clone(),
        ];
        let out = lmad_view(&mut s, a, 8, &[(2, 8), (2, 5), (2, 1)]);
        let ctx = call(0..2, &bars, &out);
        let slices = [0, 1, 2, 3].map(|k| ctx.input::<i64>(k).is_some());
        assert_eq!(slices, [false, false, false, true]);
        let (mut vert, mut horiz) = ([0i64; 3], [0i64; 2]);
        ctx.read_row(0, 1, &mut vert);
        ctx.read_row(1, 1, &mut horiz);
        assert_eq!((vert, horiz), ([10, 15, 20], [11, 12]));
        ctx.write_row(1, &[-1i64, -2, -3, -4]);
        let matrix = View::new(out.raw(), ConcreteIxFn::row_major(&[25]));
        let at = |f| matrix.get(f).as_i64();
        assert_eq!([16, 17, 21, 22].map(at), [-1, -2, -3, -4]);
    }

    /// Staged rows of a transposed, a reversed (negative stride) and a
    /// rank-1 view (rank-0 rows) read what the index function says, and
    /// writing every row back through the same layout rebuilds the block.
    #[test]
    fn staged_rows_round_trip_strided_reversed_and_rank_0_rows() {
        let layouts: [(i64, &[(i64, i64)]); 3] = [
            (0, &[(3, 1), (4, 3)]),
            (3, &[(3, 4), (4, -1)]),
            (0, &[(12, 1)]),
        ];
        for (offset, dims) in layouts {
            let mut s = MemStore::new();
            let data = InputValue::ArrayF32((0..12).map(|x| x as f32).collect());
            let a = s.alloc_input(ElemType::F32, 12, &data).unwrap();
            let b = s.alloc(ElemType::F32, 12);
            let src = [(*lmad_view(&mut s, a, offset, dims)).clone()];
            let dst = lmad_view(&mut s, b, offset, dims);
            let (rows, row_len) = (dims[0].0, 12 / dims[0].0 as usize);
            let ctx = call(0..rows, &src, &dst);
            let mut buf = vec![0f32; row_len];
            for i in 0..rows {
                ctx.read_row(0, i, &mut buf);
                let at = |j: usize| src[0].ixfn().index_flat(i * row_len as i64 + j as i64);
                let expect: Vec<f32> = (0..row_len).map(|j| at(j) as f32).collect();
                assert_eq!(buf, expect, "{dims:?} row {i}");
                ctx.write_row(i, &buf);
            }
            let block = View::new(s.raw(b), ConcreteIxFn::row_major(&[12]));
            let got: Vec<f32> = (0..12).map(|f| block.get(f).as_f32()).collect();
            assert_eq!(
                got,
                (0..12).map(|x| x as f32).collect::<Vec<_>>(),
                "{dims:?}"
            );
        }
    }

    /// A call of four rows of a 4-element block, as one row-major view.
    fn with_call(rows: Range<i64>, f: impl FnOnce(&KernelCtx)) {
        let mut s = MemStore::new();
        let b = s.alloc(ElemType::F32, 4);
        let out = ViewMut::new(s.raw(b), ConcreteIxFn::row_major(&[4]));
        let inputs = [(*out).clone()];
        f(&call(rows, &inputs, &out))
    }

    /// One call hands out its rows once and writes none behind them, so no
    /// two `&mut` of it alias and no row changes under one.
    #[test]
    fn a_call_hands_out_its_slices_once() {
        with_call(0..4, |ctx| {
            assert_eq!(ctx.rows_mut::<f32>().map(|rows| rows.len()), Some(4));
            assert!(ctx.rows_mut::<f32>().is_none());
        });
        with_call(0..4, |ctx| {
            ctx.write_row(0, &[1f32]);
            assert!(ctx.rows_mut::<f32>().is_none(), "a row is written");
        });
    }

    #[test]
    #[should_panic(expected = "written while held")]
    fn a_call_writes_no_row_after_its_slices() {
        with_call(0..4, |ctx| {
            let _rows = ctx.rows_mut::<f32>();
            ctx.write_row(0, &[1f32]);
        });
    }

    #[test]
    #[should_panic(expected = "meets the rows of out held")]
    fn a_call_reads_no_row_of_its_slices() {
        with_call(0..4, |ctx| {
            let _rows = ctx.rows_mut::<f32>();
            ctx.read_row(0, 1, &mut [0f32]);
        });
    }

    #[test]
    #[should_panic(expected = "outside its rows")]
    fn a_call_writes_only_its_rows() {
        with_call(1..3, |ctx| ctx.write_row(3, &[1f32]));
    }
}
