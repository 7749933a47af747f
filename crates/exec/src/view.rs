//! LMAD-addressed views over memory blocks.
//!
//! A [`View`]/[`ViewMut`] pairs a raw block handle with a concrete index
//! function; element access computes `base + ixfn(i, j, ...)` — exactly
//! the code the paper's compiler inlines per access. Contiguous fast paths
//! hand kernels plain slices.
//!
//! Views may alias (e.g. NW's kernel reads bars of the same block its
//! output is rebased into); the compiler's non-overlap proof is what makes
//! concurrent use sound, so all access goes through raw pointers with
//! explicit bounds checks.

use crate::store::RawBuf;
use arraymem_lmad::concrete::AccessClass;
use arraymem_lmad::{ConcreteIxFn, ConcreteLmad};

#[derive(Clone)]
struct ViewCore {
    buf: RawBuf,
    ixfn: ConcreteIxFn,
    /// Access tier, classified once at view creation: flat accesses
    /// through contiguous and row-contiguous views cost a few integer ops
    /// instead of a full LMAD-chain evaluation per element.
    plan: AccessClass,
}

impl ViewCore {
    fn new(buf: RawBuf, ixfn: ConcreteIxFn) -> ViewCore {
        let plan = ixfn.classify();
        ViewCore { buf, ixfn, plan }
    }

    #[inline]
    fn offset(&self, idx: &[i64]) -> usize {
        let off = if let Some(l) = self.ixfn.as_single() {
            l.apply(idx)
        } else {
            self.ixfn.index(idx)
        };
        debug_assert!(off >= 0, "negative element offset {off}");
        let off = off as usize;
        assert!(
            off < self.buf.len,
            "view access out of bounds: {off} >= {}",
            self.buf.len
        );
        off
    }

    #[inline]
    fn offset_flat(&self, flat: i64) -> usize {
        let off = match self.plan {
            AccessClass::Contiguous { base } => base + flat,
            AccessClass::RowContiguous {
                base,
                row_stride,
                inner,
            } => base + (flat / inner) * row_stride + flat % inner,
            AccessClass::Strided => self.ixfn.lmads[0].offset_of_flat(flat),
            AccessClass::General => self.ixfn.index_flat(flat),
        };
        debug_assert!(off >= 0, "negative element offset {off} (flat {flat})");
        let off = off as usize;
        assert!(
            off < self.buf.len,
            "view access out of bounds: flat {flat} -> offset {off} >= block len {}",
            self.buf.len
        );
        off
    }
}

/// Booleans share the i64 accessors (both are 64-bit words in storage).
fn elem_compatible(stored: arraymem_ir::ElemType, accessed: arraymem_ir::ElemType) -> bool {
    use arraymem_ir::ElemType as ET;
    stored == accessed || (stored == ET::Bool && accessed == ET::I64)
}

/// A read-only view.
#[derive(Clone)]
pub struct View {
    core: ViewCore,
}

/// A writable view.
#[derive(Clone)]
pub struct ViewMut {
    core: ViewCore,
}

macro_rules! typed_access {
    ($get:ident, $get_flat:ident, $ty:ty, $variant:ident) => {
        /// Read one element by logical index.
        #[inline]
        pub fn $get(&self, idx: &[i64]) -> $ty {
            debug_assert!(elem_compatible(
                self.core.buf.elem,
                arraymem_ir::ElemType::$variant
            ));
            let off = self.core.offset(idx);
            unsafe { *(self.core.buf.ptr as *const $ty).add(off) }
        }

        /// Read one element by flat logical position.
        #[inline]
        pub fn $get_flat(&self, flat: i64) -> $ty {
            debug_assert!(elem_compatible(
                self.core.buf.elem,
                arraymem_ir::ElemType::$variant
            ));
            let off = self.core.offset_flat(flat);
            unsafe { *(self.core.buf.ptr as *const $ty).add(off) }
        }
    };
}

impl View {
    pub fn new(buf: RawBuf, ixfn: ConcreteIxFn) -> View {
        View {
            core: ViewCore::new(buf, ixfn),
        }
    }

    /// A view whose access class was classified earlier (at array-value
    /// creation or plan-lower time), skipping the per-view re-classify.
    pub fn with_class(buf: RawBuf, ixfn: ConcreteIxFn, plan: AccessClass) -> View {
        debug_assert_eq!(plan, ixfn.classify());
        View {
            core: ViewCore { buf, ixfn, plan },
        }
    }

    pub fn ixfn(&self) -> &ConcreteIxFn {
        &self.core.ixfn
    }

    pub fn shape(&self) -> Vec<i64> {
        self.core.ixfn.shape()
    }

    pub fn num_elems(&self) -> i64 {
        self.core.ixfn.num_elems()
    }

    /// The single LMAD, when the view is one LMAD (the common case kernels
    /// specialize on).
    pub fn lmad(&self) -> Option<&ConcreteLmad> {
        self.core.ixfn.as_single()
    }

    typed_access!(get_f32, get_f32_flat, f32, F32);
    typed_access!(get_f64, get_f64_flat, f64, F64);
    typed_access!(get_i64, get_i64_flat, i64, I64);

    /// Contiguous row-major fast path: the whole view as a plain slice.
    pub fn as_slice_f32(&self) -> Option<&[f32]> {
        let base = self.core.ixfn.contiguous_base()?;
        let n = self.num_elems();
        if base < 0 || n < 0 || (base + n) as usize > self.core.buf.len {
            return None;
        }
        unsafe {
            Some(std::slice::from_raw_parts(
                (self.core.buf.ptr as *const f32).add(base as usize),
                n as usize,
            ))
        }
    }

    pub fn as_slice_i64(&self) -> Option<&[i64]> {
        let base = self.core.ixfn.contiguous_base()?;
        let n = self.num_elems();
        if base < 0 || n < 0 || (base + n) as usize > self.core.buf.len {
            return None;
        }
        unsafe {
            Some(std::slice::from_raw_parts(
                (self.core.buf.ptr as *const i64).add(base as usize),
                n as usize,
            ))
        }
    }

    /// Read by precomputed flat memory offset (as produced by the view's
    /// LMAD) — the incremental-addressing style of generated kernel code.
    #[inline]
    pub fn read_i64_off(&self, off: i64) -> i64 {
        assert!(off >= 0 && (off as usize) < self.core.buf.len);
        unsafe { *(self.core.buf.ptr as *const i64).add(off as usize) }
    }

    #[inline]
    pub fn read_f32_off(&self, off: i64) -> f32 {
        assert!(off >= 0 && (off as usize) < self.core.buf.len);
        unsafe { *(self.core.buf.ptr as *const f32).add(off as usize) }
    }

    /// A sub-view with the outer dimension fixed at `i`.
    pub fn row(&self, i: i64) -> View {
        View {
            core: ViewCore::new(self.core.buf, fix_outer(&self.core.ixfn, i)),
        }
    }
}

impl ViewMut {
    pub fn new(buf: RawBuf, ixfn: ConcreteIxFn) -> ViewMut {
        ViewMut {
            core: ViewCore::new(buf, ixfn),
        }
    }

    /// See [`View::with_class`].
    pub fn with_class(buf: RawBuf, ixfn: ConcreteIxFn, plan: AccessClass) -> ViewMut {
        debug_assert_eq!(plan, ixfn.classify());
        ViewMut {
            core: ViewCore { buf, ixfn, plan },
        }
    }

    pub fn ixfn(&self) -> &ConcreteIxFn {
        &self.core.ixfn
    }

    pub fn shape(&self) -> Vec<i64> {
        self.core.ixfn.shape()
    }

    pub fn num_elems(&self) -> i64 {
        self.core.ixfn.num_elems()
    }

    pub fn lmad(&self) -> Option<&ConcreteLmad> {
        self.core.ixfn.as_single()
    }

    typed_access!(get_f32, get_f32_flat, f32, F32);
    typed_access!(get_f64, get_f64_flat, f64, F64);
    typed_access!(get_i64, get_i64_flat, i64, I64);

    #[inline]
    pub fn set_f32(&self, idx: &[i64], v: f32) {
        let off = self.core.offset(idx);
        unsafe { *(self.core.buf.ptr as *mut f32).add(off) = v }
    }

    #[inline]
    pub fn set_f64(&self, idx: &[i64], v: f64) {
        let off = self.core.offset(idx);
        unsafe { *(self.core.buf.ptr as *mut f64).add(off) = v }
    }

    #[inline]
    pub fn set_i64(&self, idx: &[i64], v: i64) {
        let off = self.core.offset(idx);
        unsafe { *(self.core.buf.ptr as *mut i64).add(off) = v }
    }

    #[inline]
    pub fn set_f32_flat(&self, flat: i64, v: f32) {
        let off = self.core.offset_flat(flat);
        unsafe { *(self.core.buf.ptr as *mut f32).add(off) = v }
    }

    #[inline]
    pub fn set_i64_flat(&self, flat: i64, v: i64) {
        let off = self.core.offset_flat(flat);
        unsafe { *(self.core.buf.ptr as *mut i64).add(off) = v }
    }

    /// Contiguous row-major fast path for writers.
    ///
    /// Views are raw-pointer handles (GPU-buffer style): several may alias
    /// one block, and the compiler's non-overlap proofs — not the borrow
    /// checker — guarantee exclusive access, hence the `&self` receiver.
    #[allow(clippy::mut_from_ref)]
    pub fn as_slice_f32_mut(&self) -> Option<&mut [f32]> {
        let base = self.core.ixfn.contiguous_base()?;
        let n = self.num_elems();
        if base < 0 || n < 0 || (base + n) as usize > self.core.buf.len {
            return None;
        }
        unsafe {
            Some(std::slice::from_raw_parts_mut(
                (self.core.buf.ptr as *mut f32).add(base as usize),
                n as usize,
            ))
        }
    }

    /// See [`Self::as_slice_f32_mut`] for the aliasing discipline.
    #[allow(clippy::mut_from_ref)]
    pub fn as_slice_i64_mut(&self) -> Option<&mut [i64]> {
        let base = self.core.ixfn.contiguous_base()?;
        let n = self.num_elems();
        if base < 0 || n < 0 || (base + n) as usize > self.core.buf.len {
            return None;
        }
        unsafe {
            Some(std::slice::from_raw_parts_mut(
                (self.core.buf.ptr as *mut i64).add(base as usize),
                n as usize,
            ))
        }
    }

    #[inline]
    pub fn read_i64_off(&self, off: i64) -> i64 {
        assert!(off >= 0 && (off as usize) < self.core.buf.len);
        unsafe { *(self.core.buf.ptr as *const i64).add(off as usize) }
    }

    #[inline]
    pub fn read_f32_off(&self, off: i64) -> f32 {
        assert!(off >= 0 && (off as usize) < self.core.buf.len);
        unsafe { *(self.core.buf.ptr as *const f32).add(off as usize) }
    }

    /// Write by precomputed flat memory offset.
    #[inline]
    pub fn write_i64_off(&self, off: i64, v: i64) {
        assert!(off >= 0 && (off as usize) < self.core.buf.len);
        unsafe { *(self.core.buf.ptr as *mut i64).add(off as usize) = v }
    }

    #[inline]
    pub fn write_f32_off(&self, off: i64, v: f32) {
        assert!(off >= 0 && (off as usize) < self.core.buf.len);
        unsafe { *(self.core.buf.ptr as *mut f32).add(off as usize) = v }
    }

    pub fn row(&self, i: i64) -> ViewMut {
        ViewMut {
            core: ViewCore::new(self.core.buf, fix_outer(&self.core.ixfn, i)),
        }
    }

    /// Read-only alias of this view.
    pub fn as_view(&self) -> View {
        View {
            core: self.core.clone(),
        }
    }

    /// The underlying raw buffer (for constructing derived views).
    pub fn raw(&self) -> RawBuf {
        self.core.buf
    }
}

unsafe impl Send for View {}
unsafe impl Sync for View {}
unsafe impl Send for ViewMut {}
unsafe impl Sync for ViewMut {}

/// Fix the outer logical dimension of an index function at `i`.
pub fn fix_outer(ixfn: &ConcreteIxFn, i: i64) -> ConcreteIxFn {
    let mut out = ixfn.clone();
    let logical = out.lmads.last_mut().unwrap();
    assert!(!logical.dims.is_empty(), "cannot fix a rank-0 view");
    let (card, stride) = logical.dims.remove(0);
    debug_assert!(i >= 0 && i < card, "row {i} out of {card}");
    let _ = card;
    logical.offset += i * stride;
    out
}

/// Copy all elements of `src` into `dst` (same logical shape), returning
/// the number of bytes moved. This is the runtime's "update"/"concat"
/// copy, with a `memcpy` fast path when both sides are contiguous.
pub fn copy_view(dst: &ViewMut, src: &View) -> u64 {
    let n = src.num_elems();
    debug_assert_eq!(dst.num_elems(), n);
    if n <= 0 {
        return 0;
    }
    let elem = src.core.buf.elem;
    match elem {
        arraymem_ir::ElemType::F32 => {
            if let (Some(d), Some(s)) = (dst.as_slice_f32_mut(), src.as_slice_f32()) {
                d.copy_from_slice(s);
            } else {
                copy_generic::<f32>(dst, src, n);
            }
        }
        arraymem_ir::ElemType::I64 => {
            if let (Some(d), Some(s)) = (dst.as_slice_i64_mut(), src.as_slice_i64()) {
                d.copy_from_slice(s);
            } else {
                copy_generic::<i64>(dst, src, n);
            }
        }
        arraymem_ir::ElemType::F64 => copy_generic::<f64>(dst, src, n),
        arraymem_ir::ElemType::Bool => copy_generic::<i64>(dst, src, n),
    }
    n as u64 * elem.size_bytes() as u64
}

fn copy_generic<T: Copy>(dst: &ViewMut, src: &View, n: i64) {
    // Generic strided copy through both index functions. Specialize the
    // innermost dimension when both sides are single LMADs.
    let (Some(dl), Some(sl)) = (dst.lmad(), src.lmad()) else {
        for f in 0..n {
            let so = src.core.offset_flat(f);
            let do_ = dst.core.offset_flat(f);
            unsafe {
                *(dst.core.buf.ptr as *mut T).add(do_) = *(src.core.buf.ptr as *const T).add(so);
            }
        }
        return;
    };
    let shape = sl.shape();
    let rank = shape.len();
    if rank == 0 {
        let so = sl.offset as usize;
        let do_ = dl.offset as usize;
        assert!(so < src.core.buf.len && do_ < dst.core.buf.len);
        unsafe {
            *(dst.core.buf.ptr as *mut T).add(do_) = *(src.core.buf.ptr as *const T).add(so);
        }
        return;
    }
    // Iterate the outer dims, stream the innermost. When both innermost
    // strides are 1 (row-contiguous on both sides — e.g. copying a bar of
    // a rebased matrix) each run is a single `memcpy`.
    let inner = shape[rank - 1];
    let (s_in, d_in) = (sl.dims[rank - 1].1, dl.dims[rank - 1].1);
    let rows_contiguous = s_in == 1 && d_in == 1 && inner > 0;
    let outer: i64 = shape[..rank - 1].iter().product();
    let mut idx = vec![0i64; rank];
    for _ in 0..outer.max(1) {
        idx[rank - 1] = 0;
        let mut so = sl.apply(&idx);
        let mut do_ = dl.apply(&idx);
        if rows_contiguous {
            assert!(
                so >= 0
                    && (so + inner) as usize <= src.core.buf.len
                    && do_ >= 0
                    && (do_ + inner) as usize <= dst.core.buf.len,
                "copy out of bounds"
            );
            // memmove, not memcpy: src and dst may be views of one block.
            unsafe {
                std::ptr::copy(
                    (src.core.buf.ptr as *const T).add(so as usize),
                    (dst.core.buf.ptr as *mut T).add(do_ as usize),
                    inner as usize,
                );
            }
        } else {
            for _ in 0..inner {
                assert!(
                    so >= 0
                        && (so as usize) < src.core.buf.len
                        && do_ >= 0
                        && (do_ as usize) < dst.core.buf.len,
                    "copy out of bounds"
                );
                unsafe {
                    *(dst.core.buf.ptr as *mut T).add(do_ as usize) =
                        *(src.core.buf.ptr as *const T).add(so as usize);
                }
                so += s_in;
                do_ += d_in;
            }
        }
        // Increment the outer counter.
        for d in (0..rank - 1).rev() {
            idx[d] += 1;
            if idx[d] < shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::InputValue;
    use arraymem_ir::ElemType;

    fn store_with(data: Vec<f32>) -> (MemStore, usize) {
        let mut s = MemStore::new();
        let b = s.alloc_input(ElemType::F32, data.len(), &InputValue::ArrayF32(data));
        (s, b)
    }

    #[test]
    fn typed_access_round_trips() {
        let (mut s, b) = store_with(vec![0.0; 12]);
        let v = ViewMut::new(s.raw(b), ConcreteIxFn::row_major(&[3, 4]));
        v.set_f32(&[2, 3], 7.5);
        assert_eq!(v.get_f32(&[2, 3]), 7.5);
        assert_eq!(v.as_view().get_f32_flat(11), 7.5);
    }

    #[test]
    fn row_views_fix_the_outer_dim() {
        let (mut s, b) = store_with((0..12).map(|i| i as f32).collect());
        let v = View::new(s.raw(b), ConcreteIxFn::row_major(&[3, 4]));
        let r = v.row(1);
        assert_eq!(r.shape(), vec![4]);
        assert_eq!(r.get_f32(&[0]), 4.0);
        assert_eq!(r.get_f32(&[3]), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_block_access_panics() {
        let (mut s, b) = store_with(vec![0.0; 4]);
        let v = View::new(
            s.raw(b),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 3,
                dims: vec![(4, 1)],
            }),
        );
        let _ = v.get_f32(&[3]); // offset 6 > len 4
    }

    #[test]
    fn copy_between_strided_views_matches_naive() {
        // dst: every other element of a block; src: a reversed view.
        let (mut s, sb) = store_with((0..8).map(|i| i as f32).collect());
        let db = s.alloc(ElemType::F32, 16);
        let dst = ViewMut::new(
            s.raw(db),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 0,
                dims: vec![(8, 2)],
            }),
        );
        let src = View::new(
            s.raw(sb),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 7,
                dims: vec![(8, -1)],
            }),
        );
        let bytes = copy_view(&dst, &src);
        assert_eq!(bytes, 32);
        for i in 0..8 {
            assert_eq!(dst.get_f32(&[i]), (7 - i) as f32, "elem {i}");
        }
    }

    #[test]
    fn contiguous_copy_uses_memcpy_path() {
        let mut s = MemStore::new();
        let db = s.alloc(ElemType::I64, 6);
        let sb = s.alloc_input(
            ElemType::I64,
            6,
            &InputValue::ArrayI64(vec![1, 2, 3, 4, 5, 6]),
        );
        let dst = ViewMut::new(s.raw(db), ConcreteIxFn::row_major(&[6]));
        let src = View::new(s.raw(sb), ConcreteIxFn::row_major(&[6]));
        copy_view(&dst, &src);
        assert_eq!(dst.as_slice_i64_mut().unwrap(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn zero_sized_copy_is_noop() {
        let mut s = MemStore::new();
        let db = s.alloc(ElemType::F32, 4);
        let sb = s.alloc(ElemType::F32, 4);
        let dst = ViewMut::new(
            s.raw(db),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 0,
                dims: vec![(0, 1)],
            }),
        );
        let src = View::new(
            s.raw(sb),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 0,
                dims: vec![(0, 1)],
            }),
        );
        assert_eq!(copy_view(&dst, &src), 0);
    }

    #[test]
    fn multi_lmad_views_read_through_composition() {
        // flatten(transpose) of a 2x3 row-major block.
        let (mut s, b) = store_with((0..6).map(|i| i as f32).collect());
        let ix = ConcreteIxFn {
            lmads: vec![
                ConcreteLmad {
                    offset: 0,
                    dims: vec![(2, 3), (3, 1)],
                },
                ConcreteLmad {
                    offset: 0,
                    dims: vec![(3, 1), (2, 3)],
                },
                ConcreteLmad {
                    offset: 0,
                    dims: vec![(6, 1)],
                },
            ],
        };
        let v = View::new(s.raw(b), ix);
        let got: Vec<f32> = (0..6).map(|i| v.get_f32_flat(i)).collect();
        assert_eq!(got, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }
}

#[cfg(test)]
mod negative_len_tests {
    use super::*;
    use crate::store::MemStore;
    use arraymem_ir::ElemType;

    /// Regression (code review): a view whose runtime-computed length is
    /// negative must not produce a wrapped-length slice.
    #[test]
    fn negative_length_views_yield_no_slice() {
        let mut s = MemStore::new();
        let b = s.alloc(ElemType::F32, 8);
        let v = ViewMut::new(
            s.raw(b),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 4,
                dims: vec![(-2, 1)],
            }),
        );
        assert!(v.as_slice_f32_mut().is_none());
        assert!(v.as_view().as_slice_f32().is_none());
        // And copying through it is a no-op, not UB.
        let src = View::new(
            s.raw(b),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 0,
                dims: vec![(-2, 1)],
            }),
        );
        assert_eq!(copy_view(&v, &src), 0);
    }
}
