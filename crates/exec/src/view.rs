//! LMAD-addressed views over memory blocks.
//!
//! A [`View`]/[`ViewMut`] pairs a raw block handle with a concrete index
//! function; element access computes `base + ixfn(i, j, ...)` — exactly
//! the code the paper's compiler inlines per access. A block is untyped
//! words ([`crate::store`]); the view's element type says how to read
//! them. A kernel takes its memory as slices once per call
//! ([`crate::KernelCtx::f32_slices`]) or, where its views are strided,
//! through the offset accessors ([`View::read_off`],
//! [`ViewMut::write_off`]). The VM moves elements it does not interpret by
//! *width* (4 or 8 bytes) and converts to and from [`Value`] with
//! [`View::get`] / [`ViewMut::set`] — or, for a single point, with
//! [`RawBuf::get`] / [`RawBuf::set`] at an offset it computed itself, no
//! view built.
//!
//! Views may alias (e.g. NW's kernel reads bars of the same block its
//! output is rebased into); the compiler's non-overlap proof is what makes
//! concurrent use sound, so all access goes through raw pointers with
//! explicit bounds checks — per element, or once per kernel call for
//! slices.

use crate::store::RawBuf;
use crate::value::Value;
use arraymem_ir::ElemType;
use arraymem_lmad::concrete::AccessClass;
use arraymem_lmad::{ConcreteIxFn, ConcreteLmad};
use std::ops::Range;

/// A Rust type a typed accessor may read block words as (booleans are
/// stored as `i64` words).
pub trait Elem: Copy {
    const TYPE: ElemType;
}

impl Elem for f32 {
    const TYPE: ElemType = ElemType::F32;
}

impl Elem for f64 {
    const TYPE: ElemType = ElemType::F64;
}

impl Elem for i64 {
    const TYPE: ElemType = ElemType::I64;
}

/// One element of a block, by memory offset: what a view's accessors
/// bottom out in, and what the VM's point accesses call directly.
impl RawBuf {
    /// Bounds-check a memory offset against the block.
    #[inline]
    fn in_block(&self, off: i64) -> usize {
        // A negative offset wraps far past any block length.
        assert!(
            (off as usize) < self.len,
            "view access out of bounds: offset {off} outside block of {}",
            self.len
        );
        off as usize
    }

    /// The element at memory offset `off`, widened to a word.
    #[inline]
    fn load_word(&self, off: usize) -> u64 {
        // SAFETY: callers pass an `off` that passed `in_block`, so it is
        // inside the block's `len` elements of the element type's width.
        unsafe {
            match self.elem.size_bytes() {
                4 => *(self.ptr as *const u32).add(off) as u64,
                _ => *(self.ptr as *const u64).add(off),
            }
        }
    }

    #[inline]
    fn store_word(&self, off: usize, w: u64) {
        // SAFETY: as in `load_word`.
        unsafe {
            match self.elem.size_bytes() {
                4 => *(self.ptr as *mut u32).add(off) = w as u32,
                _ => *(self.ptr as *mut u64).add(off) = w,
            }
        }
    }

    #[inline]
    fn value_at(&self, off: usize) -> Value {
        Value::of_word(self.elem, self.load_word(off))
    }

    /// `v` as the word an element of this block's type stores (an `f32`
    /// in the low half).
    #[inline]
    fn word_of(&self, v: Value) -> u64 {
        match self.elem {
            ElemType::F32 => v.as_f32().to_bits() as u64,
            ElemType::F64 => v.as_f64().to_bits(),
            ElemType::I64 => v.as_i64() as u64,
            ElemType::Bool => (v.as_i64() != 0) as u64,
        }
    }

    /// The element at memory offset `off`, as the [`Value`] of the
    /// block's element type.
    #[inline]
    pub(crate) fn get(&self, off: i64) -> Value {
        self.value_at(self.in_block(off))
    }

    /// The element at memory offset `off` as a lane of its type holds it
    /// (booleans 0 and 1), and the store of one.
    #[inline]
    pub(crate) fn lane(&self, off: i64) -> u64 {
        let w = self.load_word(self.in_block(off));
        match self.elem {
            ElemType::Bool => w.min(1),
            _ => w,
        }
    }

    #[inline]
    pub(crate) fn set_lane(&self, off: i64, w: u64) {
        self.store_word(self.in_block(off), w)
    }

    /// Store `v`, converted to the block's element type, at memory offset
    /// `off`.
    #[inline]
    pub(crate) fn set(&self, off: i64, v: Value) {
        self.store_word(self.in_block(off), self.word_of(v))
    }
}

/// A read-only view.
#[derive(Clone)]
pub struct View {
    buf: RawBuf,
    ixfn: ConcreteIxFn,
    /// Access tier, classified once at view creation: flat accesses
    /// through contiguous and row-contiguous views cost a few integer ops
    /// instead of a full LMAD-chain evaluation per element.
    plan: AccessClass,
}

/// A writable view: everything a [`View`] reads (it derefs to one), plus
/// the stores.
#[derive(Clone)]
pub struct ViewMut(View);

impl std::ops::Deref for ViewMut {
    type Target = View;

    fn deref(&self) -> &View {
        &self.0
    }
}

impl View {
    pub fn new(buf: RawBuf, ixfn: ConcreteIxFn) -> View {
        let plan = ixfn.classify();
        View { buf, ixfn, plan }
    }

    /// A view whose access class was classified earlier (at array-value
    /// creation or plan-lower time), skipping the per-view re-classify.
    pub(crate) fn with_class(buf: RawBuf, ixfn: ConcreteIxFn, plan: AccessClass) -> View {
        debug_assert_eq!(plan, ixfn.classify());
        View { buf, ixfn, plan }
    }

    pub fn ixfn(&self) -> &ConcreteIxFn {
        &self.ixfn
    }

    pub fn shape(&self) -> Vec<i64> {
        self.ixfn.shape()
    }

    pub fn num_elems(&self) -> i64 {
        self.ixfn.num_elems()
    }

    /// The single LMAD, when the view is one LMAD (the common case kernels
    /// specialize on).
    pub fn lmad(&self) -> Option<&ConcreteLmad> {
        self.ixfn.as_single()
    }

    /// Memory offset of a flat logical position.
    #[inline(always)]
    fn addr_flat(&self, flat: i64) -> usize {
        self.buf.in_block(match self.plan {
            AccessClass::Contiguous { base } => base + flat,
            AccessClass::RowContiguous {
                base,
                row_stride,
                inner,
            } => base + (flat / inner) * row_stride + flat % inner,
            AccessClass::Strided => self.ixfn.lmads[0].offset_of_flat(flat),
            AccessClass::General => self.ixfn.index_flat(flat),
        })
    }

    #[inline]
    fn load<T: Elem>(&self, off: usize) -> T {
        // Booleans share the i64 accessors (both are 64-bit words).
        debug_assert!(
            self.buf.elem == T::TYPE || (self.buf.elem, T::TYPE) == (ElemType::Bool, ElemType::I64)
        );
        // SAFETY: `off` passed `in_block`, so it is inside the block's
        // `len` elements, each `size_of::<T>()` bytes wide.
        unsafe { *(self.buf.ptr as *const T).add(off) }
    }

    /// Read by precomputed memory offset (as produced by the view's LMAD)
    /// — the incremental-addressing style of generated kernel code.
    #[inline]
    pub fn read_off<T: Elem>(&self, off: i64) -> T {
        self.load(self.buf.in_block(off))
    }

    /// The element at flat logical position `flat`, as the [`Value`] of
    /// the view's element type.
    #[inline]
    pub(crate) fn get(&self, flat: i64) -> Value {
        self.buf.value_at(self.addr_flat(flat))
    }

    /// Contiguous row-major fast path: the whole view as a plain slice of
    /// `T`, which must have the element type's width.
    pub(crate) fn as_slice<T: Copy>(&self) -> Option<&[T]> {
        let (base, n) = self.slice_bounds::<T>()?;
        // SAFETY: `slice_bounds` checked `base + n <= len` elements of
        // `size_of::<T>()` bytes each.
        Some(unsafe { std::slice::from_raw_parts((self.buf.ptr as *const T).add(base), n) })
    }

    pub(crate) fn elem(&self) -> ElemType {
        self.buf.elem
    }

    /// Elements `[lo, lo + len)` in flat order as a slice of the block: a
    /// contiguous view's strips need no copy.
    pub(crate) fn strip<T: Elem>(&self, lo: usize, len: usize) -> Option<&[T]> {
        self.as_slice::<T>()?.get(lo..lo + len)
    }

    /// The same elements copied into `out` — through the index function
    /// where there is no slice to copy from.
    pub(crate) fn load_strip<T: Elem>(&self, lo: usize, out: &mut [T]) {
        if let Some(s) = self.strip(lo, out.len()) {
            return out.copy_from_slice(s);
        }
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.load(self.addr_flat((lo + k) as i64));
        }
    }

    fn slice_bounds<T>(&self) -> Option<(usize, usize)> {
        assert_eq!(size_of::<T>(), self.buf.elem.size_bytes());
        let base = self.ixfn.contiguous_base()?;
        let n = self.num_elems();
        (base >= 0 && n >= 0 && (base + n) as usize <= self.buf.len)
            .then_some((base as usize, n as usize))
    }
}

impl ViewMut {
    pub fn new(buf: RawBuf, ixfn: ConcreteIxFn) -> ViewMut {
        ViewMut(View::new(buf, ixfn))
    }

    /// See [`View::with_class`].
    pub(crate) fn with_class(buf: RawBuf, ixfn: ConcreteIxFn, plan: AccessClass) -> ViewMut {
        ViewMut(View::with_class(buf, ixfn, plan))
    }

    /// Slide the view `delta` elements through its block: what the rows
    /// from `i` (a [`fix_outer`] row, a tile of rows) become as the rows
    /// from `i + k` with `delta = k · stride`, without rebuilding the index
    /// function.
    pub(crate) fn shift(&mut self, delta: i64) {
        let View { ixfn, plan, .. } = &mut self.0;
        ixfn.lmads.last_mut().unwrap().offset += delta;
        if let AccessClass::Contiguous { base } | AccessClass::RowContiguous { base, .. } = plan {
            *base += delta;
        }
        debug_assert_eq!(*plan, ixfn.classify());
    }

    /// The underlying raw buffer (for constructing derived views).
    pub(crate) fn raw(&self) -> RawBuf {
        self.buf
    }

    // Views are raw-pointer handles (GPU-buffer style): several may alias
    // one block, and the compiler's non-overlap proofs — not the borrow
    // checker — guarantee exclusive access, hence the `&self` receivers.

    #[inline]
    fn store<T: Elem>(&self, off: usize, v: T) {
        debug_assert!(
            self.buf.elem == T::TYPE || (self.buf.elem, T::TYPE) == (ElemType::Bool, ElemType::I64)
        );
        // SAFETY: as in `View::load`.
        unsafe { *(self.buf.ptr as *mut T).add(off) = v }
    }

    /// Write by precomputed memory offset; see [`View::read_off`].
    #[inline]
    pub fn write_off<T: Elem>(&self, off: i64, v: T) {
        self.store(self.buf.in_block(off), v)
    }

    /// Store `v`, converted to the view's element type, at flat logical
    /// position `flat`.
    #[inline]
    pub(crate) fn set(&self, flat: i64, v: Value) {
        self.buf
            .store_word(self.addr_flat(flat), self.buf.word_of(v))
    }

    /// Copy the element at flat position `from` of `src` (a view of the
    /// same element type) to flat position `to` — uninterpreted, by width.
    #[inline]
    pub(crate) fn copy_elem(&self, to: i64, src: &View, from: i64) {
        debug_assert_eq!(self.buf.elem.size_bytes(), src.buf.elem.size_bytes());
        let w = src.buf.load_word(src.addr_flat(from));
        self.buf.store_word(self.addr_flat(to), w)
    }

    /// Store `src` as elements `[lo, lo + src.len())`, in flat order.
    pub(crate) fn store_strip<T: Elem>(&self, lo: usize, src: &[T]) {
        let slice = self.as_slice_mut::<T>();
        if let Some(d) = slice.and_then(|d| d.get_mut(lo..lo + src.len())) {
            return d.copy_from_slice(src);
        }
        for (k, &v) in src.iter().enumerate() {
            self.store(self.addr_flat((lo + k) as i64), v);
        }
    }

    /// Store `v` into every element of the view.
    pub(crate) fn fill(&self, v: Value) {
        let w = self.buf.word_of(v);
        let filled = match self.buf.elem.size_bytes() {
            4 => self.as_slice_mut::<u32>().map(|s| s.fill(w as u32)),
            _ => self.as_slice_mut::<u64>().map(|s| s.fill(w)),
        };
        if filled.is_none() {
            for f in 0..self.num_elems() {
                self.buf.store_word(self.addr_flat(f), w);
            }
        }
    }

    /// Contiguous row-major fast path for writers; see [`View::as_slice`].
    #[allow(clippy::mut_from_ref)]
    fn as_slice_mut<T: Copy>(&self) -> Option<&mut [T]> {
        let (base, n) = self.slice_bounds::<T>()?;
        // SAFETY: as in `View::as_slice`; exclusivity is the compiler's
        // non-overlap proof (see above).
        Some(unsafe { std::slice::from_raw_parts_mut((self.buf.ptr as *mut T).add(base), n) })
    }
}

/// [`KernelCtx::f32_slices`](crate::KernelCtx::f32_slices) for any `T`:
/// `None` unless the call qualifies. Checks `out`'s rows, not its whole
/// view (a private tile's offset is negative); O(inputs + rank).
#[allow(clippy::mut_from_ref)]
pub(crate) fn row_slices<'v, T: Elem, const N: usize>(
    inputs: &'v [View],
    out: &'v ViewMut,
    rows: Range<i64>,
) -> Option<([&'v [T]; N], &'v mut [T])> {
    let lmad = |v: &'v View| v.lmad().filter(|_| v.buf.elem == T::TYPE);
    let ol = lmad(out).filter(|_| inputs.len() == N)?;
    let (outer, row) = ol.dims.split_first()?;
    let row_len = row.iter().rev().try_fold(1, |len, d| {
        (d.card >= 0 && (d.card == 1 || d.stride == len)).then_some(len * d.card)
    })?;
    let (n, start) = (rows.end - rows.start, ol.offset + rows.start * outer.stride);
    let (len, dense) = (n * row_len, n <= 1 || outer.stride == row_len);
    let inside = 0 <= rows.start && n >= 0 && rows.end <= outer.card && start >= 0;
    (dense && inside && (start + len) as usize <= out.buf.len).then_some(())?;
    // Spans clamped to the block (a tile's leaves it), as byte addresses.
    let span = |v: &View, l: &ConcreteLmad| {
        let (lo, hi) = l.span()?;
        let (lo, hi) = (lo.max(0), hi.min(v.buf.len as i64 - 1));
        let (at, w) = (v.buf.ptr as i64, size_of::<T>() as i64);
        (lo <= hi).then_some((at + lo * w, at + hi * w))
    };
    let out_span = span(out, ol);
    let mut slices = [&[][..]; N];
    for (s, v) in slices.iter_mut().zip(inputs) {
        let meets = span(v, lmad(v)?).zip(out_span);
        let meets = meets.is_some_and(|(a, b)| a.0 <= b.1 && b.0 <= a.1);
        *s = v.as_slice().filter(|_| !meets)?;
    }
    // SAFETY: rows `rows` are `n · row_len` elements from `start`, checked
    // inside the block above; no input slice meets them (or any other row
    // of `out`), and the caller hands them out once per kernel call.
    let rows = unsafe {
        std::slice::from_raw_parts_mut((out.buf.ptr as *mut T).add(start as usize), len as usize)
    };
    Some((slices, rows))
}

/// One strip of gather (`dst[at + k] = src[idx[k]]`) or scatter
/// (`dst[idx[k]] = src[at + k]`) lanes, in ascending order, with nothing
/// but the move in the loop: the caller proved every index inside the
/// indexed view. `apart` says the two views are of different blocks, and
/// then two contiguous ones move as slices of the element width.
pub(crate) fn move_lanes(
    dst: &ViewMut,
    src: &View,
    idx: &[i64],
    at: usize,
    scatter: bool,
    apart: bool,
) {
    fn as_slices<W: Copy>(
        dst: &ViewMut,
        src: &View,
        idx: &[i64],
        at: usize,
        scatter: bool,
    ) -> bool {
        let (Some(d), Some(s)) = (dst.as_slice_mut::<W>(), src.as_slice::<W>()) else {
            return false;
        };
        if scatter {
            for (&j, &v) in idx.iter().zip(&s[at..]) {
                d[j as usize] = v;
            }
        } else {
            for (o, &j) in d[at..].iter_mut().zip(idx) {
                *o = s[j as usize];
            }
        }
        true
    }
    let moved = apart
        && match src.buf.elem.size_bytes() {
            4 => as_slices::<u32>(dst, src, idx, at, scatter),
            _ => as_slices::<u64>(dst, src, idx, at, scatter),
        };
    if !moved {
        for (k, &j) in (at as i64..).zip(idx) {
            if scatter {
                dst.copy_elem(j, src, k);
            } else {
                dst.copy_elem(k, src, j);
            }
        }
    }
}

/// Fix the outer logical dimension of an index function at `i`.
pub(crate) fn fix_outer(ixfn: &ConcreteIxFn, i: i64) -> ConcreteIxFn {
    let mut out = ixfn.clone();
    let logical = out.lmads.last_mut().unwrap();
    assert!(!logical.dims.is_empty(), "cannot fix a rank-0 view");
    let outer = logical.dims.remove(0);
    debug_assert!(i >= 0 && i < outer.card, "row {i} out of {}", outer.card);
    logical.offset += i * outer.stride;
    out
}

/// Copy all elements of `src` into `dst` (same logical shape and element
/// type), returning the number of bytes moved. This is the runtime's one
/// copy routine — "update", "concat", the mapnest's row copy-out and
/// result download — tiered: one `memcpy` when both sides are contiguous,
/// a `memmove` per row when both are row-contiguous, element by element
/// otherwise. Elements move by width; their type is never looked at.
pub(crate) fn copy_view(dst: &ViewMut, src: &View) -> u64 {
    let n = src.num_elems();
    debug_assert_eq!(dst.num_elems(), n);
    if n <= 0 {
        return 0;
    }
    let width = src.buf.elem.size_bytes();
    match width {
        4 => copy_elems::<u32>(dst, src, n),
        _ => copy_elems::<u64>(dst, src, n),
    }
    n as u64 * width as u64
}

fn copy_elems<T: Copy>(dst: &ViewMut, src: &View, n: i64) {
    if let (Some(d), Some(s)) = (dst.as_slice_mut::<T>(), src.as_slice::<T>()) {
        d.copy_from_slice(s);
        return;
    }
    // SAFETY (every raw move below): `T` has the element width (asserted by
    // `as_slice` above), and each offset passed `in_block` — directly, via
    // `addr_flat`, or as a whole row in the assert before the `memmove`.
    let (sp, dp) = (src.buf.ptr as *const T, dst.buf.ptr as *mut T);
    // Strided copy through both index functions. Specialize the
    // innermost dimension when both sides are single LMADs.
    let lmads = dst.lmad().zip(src.lmad());
    let Some((dl, sl)) = lmads.filter(|(_, sl)| !sl.dims.is_empty()) else {
        for f in 0..n {
            let (so, do_) = (src.addr_flat(f), dst.addr_flat(f));
            unsafe { *dp.add(do_) = *sp.add(so) }
        }
        return;
    };
    let shape = sl.shape();
    let rank = shape.len();
    // Iterate the outer dims, stream the innermost. When both innermost
    // strides are 1 (row-contiguous on both sides — e.g. copying a bar of
    // a rebased matrix) each run is a single `memcpy`.
    let inner = shape[rank - 1];
    let (s_in, d_in) = (sl.dims[rank - 1].stride, dl.dims[rank - 1].stride);
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
                    && (so + inner) as usize <= src.buf.len
                    && do_ >= 0
                    && (do_ + inner) as usize <= dst.buf.len,
                "copy out of bounds"
            );
            // memmove, not memcpy: src and dst may be views of one block.
            unsafe { std::ptr::copy(sp.add(so as usize), dp.add(do_ as usize), inner as usize) }
        } else {
            for _ in 0..inner {
                let (s, d) = (src.buf.in_block(so), dst.buf.in_block(do_));
                unsafe { *dp.add(d) = *sp.add(s) }
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
    use arraymem_lmad::Dim;

    fn store_with(data: Vec<f32>) -> (MemStore, usize) {
        let mut s = MemStore::new();
        let b = s
            .alloc_input(ElemType::F32, data.len(), &InputValue::ArrayF32(data))
            .unwrap();
        (s, b)
    }

    #[test]
    fn typed_access_round_trips() {
        let (mut s, b) = store_with(vec![0.0; 12]);
        let v = ViewMut::new(s.raw(b), ConcreteIxFn::row_major(&[3, 4]));
        v.write_off(11, 7.5f32); // [2, 3]
        assert_eq!(v.read_off::<f32>(11), 7.5);
        assert_eq!(v.get(11).as_f32(), 7.5);
    }

    /// Sliding row 0 by the outer stride `k` times is row `k`, fixed by
    /// [`fix_outer`]: the same index function, access class and element
    /// addresses, for one LMAD of each access class and for an LMAD chain.
    #[test]
    fn shifted_rows_are_fixed_rows() {
        let mut s = MemStore::new();
        let block = s.alloc(ElemType::F32, 512);
        let raw = s.raw(block);
        let lmad = |offset, dims: &[(i64, i64)]| ConcreteLmad {
            offset,
            dims: dims
                .iter()
                .map(|&(card, stride)| Dim { card, stride })
                .collect(),
        };
        let views = [
            ConcreteIxFn::row_major(&[4, 3, 2]),
            ConcreteIxFn::from_lmad(lmad(1, &[(4, 40), (3, 8), (4, 1)])),
            ConcreteIxFn::from_lmad(lmad(2, &[(4, 30), (3, 2), (2, 5)])),
            ConcreteIxFn {
                lmads: vec![lmad(0, &[(3, 1), (4, 3)]), lmad(0, &[(4, 3), (3, 1)])],
            },
        ];
        let classes = ["Contiguous", "RowContiguous", "Strided", "General"];
        for (ixfn, class) in views.into_iter().zip(classes) {
            let row = |k| ViewMut::new(raw, fix_outer(&ixfn, k));
            let stride = ixfn.lmads.last().unwrap().dims[0].stride;
            let mut slid = row(0);
            assert!(format!("{:?}", slid.plan).starts_with(class));
            for k in 0..4 {
                let fixed = row(k);
                assert!(slid.ixfn() == fixed.ixfn(), "{class} row {k}");
                assert_eq!(slid.plan, fixed.plan, "{class} row {k}");
                for f in 0..fixed.num_elems() {
                    assert_eq!(slid.addr_flat(f), fixed.addr_flat(f), "{class} row {k}");
                }
                slid.shift(stride);
            }
        }
    }

    /// An f32 view of `block` with LMAD `offset + {dims}`.
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
    fn row_slices_take_a_calls_rows() {
        let mut s = MemStore::new();
        let (a, b, t) = (
            s.alloc(ElemType::F32, 12),
            s.alloc(ElemType::F32, 12),
            s.alloc(ElemType::F32, 12),
        );
        let input = [(*lmad_view(&mut s, a, 0, &[(4, 3), (3, 1)])).clone()];
        let out = lmad_view(&mut s, b, 0, &[(4, 3), (3, 1)]);
        let ([whole], rows) = row_slices::<f32, 1>(&input, &out, 1..3).unwrap();
        assert_eq!((whole.len(), rows.len()), (12, 6));
        rows[0] = 5.0;
        assert_eq!(out.get(3).as_f32(), 5.0, "row 1 starts at element 3");
        let tile = lmad_view(&mut s, t, -12, &[(8, 3), (3, 1)]);
        let (_, rows) = row_slices::<f32, 1>(&input, &tile, 6..8).unwrap();
        rows.fill(1.0);
        let block = View::new(s.raw(t), ConcreteIxFn::row_major(&[12]));
        let got: Vec<f32> = (0..12).map(|f| block.get(f).as_f32()).collect();
        assert_eq!(got[6..], [1.0; 6], "rows 6..8 are the tile's second slot");
        assert!(row_slices::<f32, 1>(&input, &tile, 2..4).is_none());
    }

    /// What a kernel call must not get as slices: an input whose span
    /// meets rows of `out` that another call writes, a strided NW-shaped
    /// `out` (a 2×2 block of a 4-wide matrix), and a non-f32 input.
    #[test]
    fn row_slices_refuse_what_does_not_qualify() {
        let mut s = MemStore::new();
        let (b, c, ints) = (
            s.alloc(ElemType::F32, 12),
            s.alloc(ElemType::F32, 12),
            s.alloc(ElemType::I64, 4),
        );
        let out = lmad_view(&mut s, b, 0, &[(4, 3), (3, 1)]);
        let row_3 = [(*lmad_view(&mut s, b, 9, &[(1, 3), (3, 1)])).clone()];
        assert!(row_slices::<f32, 1>(&row_3, &out, 0..2).is_none());
        let elsewhere = [(*lmad_view(&mut s, c, 9, &[(1, 3), (3, 1)])).clone()];
        assert!(row_slices::<f32, 1>(&elsewhere, &out, 0..2).is_some());
        let block = lmad_view(&mut s, b, 5, &[(2, 4), (2, 1)]);
        assert!(row_slices::<f32, 0>(&[], &block, 0..2).is_none());
        assert!(
            row_slices::<f32, 0>(&[], &block, 1..2).is_some(),
            "one row is dense"
        );
        let ints = [View::new(s.raw(ints), ConcreteIxFn::row_major(&[4]))];
        assert!(row_slices::<f32, 1>(&ints, &out, 0..2).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_block_access_panics() {
        let (mut s, b) = store_with(vec![0.0; 4]);
        let v = View::new(
            s.raw(b),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 3,
                dims: vec![Dim { card: 4, stride: 1 }],
            }),
        );
        let _ = v.get(3); // offset 6 > len 4
    }

    /// One input array per element width: the copy tiers move elements
    /// by width, so `f64` takes the paths `i64` does.
    fn inputs_0_to_8() -> [InputValue; 3] {
        [
            InputValue::ArrayF32((0..8).map(|i| i as f32).collect()),
            InputValue::ArrayF64((0..8).map(|i| i as f64).collect()),
            InputValue::ArrayI64((0..8).collect()),
        ]
    }

    #[test]
    fn copy_between_strided_views_matches_naive() {
        // dst: every other element of a block; src: a reversed view.
        for data in inputs_0_to_8() {
            let elem = data.array_bytes().unwrap().0;
            let mut s = MemStore::new();
            let sb = s.alloc_input(elem, 8, &data).unwrap();
            let db = s.alloc(elem, 16);
            let dst = ViewMut::new(
                s.raw(db),
                ConcreteIxFn::from_lmad(ConcreteLmad {
                    offset: 0,
                    dims: vec![Dim { card: 8, stride: 2 }],
                }),
            );
            let src = View::new(
                s.raw(sb),
                ConcreteIxFn::from_lmad(ConcreteLmad {
                    offset: 7,
                    dims: vec![Dim {
                        card: 8,
                        stride: -1,
                    }],
                }),
            );
            let bytes = copy_view(&dst, &src);
            assert_eq!(bytes, 8 * elem.size_bytes() as u64);
            for i in 0..8 {
                assert_eq!(dst.get(i).as_i64(), 7 - i, "{elem:?} elem {i}");
            }
        }
    }

    #[test]
    fn contiguous_copy_uses_memcpy_path() {
        for data in inputs_0_to_8() {
            let elem = data.array_bytes().unwrap().0;
            let mut s = MemStore::new();
            let db = s.alloc(elem, 8);
            let sb = s.alloc_input(elem, 8, &data).unwrap();
            let dst = ViewMut::new(s.raw(db), ConcreteIxFn::row_major(&[8]));
            let src = View::new(s.raw(sb), ConcreteIxFn::row_major(&[8]));
            // Both sides hand out plain slices: the single-memcpy tier.
            match elem.size_bytes() {
                4 => {
                    assert!(dst.as_slice_mut::<u32>().is_some() && src.as_slice::<u32>().is_some())
                }
                _ => {
                    assert!(dst.as_slice_mut::<u64>().is_some() && src.as_slice::<u64>().is_some())
                }
            }
            copy_view(&dst, &src);
            for i in 0..8 {
                assert_eq!(dst.get(i).as_i64(), i, "{elem:?} elem {i}");
            }
        }
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
                dims: vec![Dim { card: 0, stride: 1 }],
            }),
        );
        let src = View::new(
            s.raw(sb),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 0,
                dims: vec![Dim { card: 0, stride: 1 }],
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
                    dims: vec![Dim { card: 2, stride: 3 }, Dim { card: 3, stride: 1 }],
                },
                ConcreteLmad {
                    offset: 0,
                    dims: vec![Dim { card: 3, stride: 1 }, Dim { card: 2, stride: 3 }],
                },
                ConcreteLmad {
                    offset: 0,
                    dims: vec![Dim { card: 6, stride: 1 }],
                },
            ],
        };
        let v = View::new(s.raw(b), ix);
        let got: Vec<f32> = (0..6).map(|i| v.get(i).as_f32()).collect();
        assert_eq!(got, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }
}

#[cfg(test)]
mod negative_len_tests {
    use super::*;
    use crate::store::MemStore;
    use arraymem_ir::ElemType;
    use arraymem_lmad::Dim;

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
                dims: vec![Dim {
                    card: -2,
                    stride: 1,
                }],
            }),
        );
        assert!(v.as_slice_mut::<f32>().is_none());
        assert!(v.as_slice::<f32>().is_none());
        // And copying through it is a no-op, not UB.
        let src = View::new(
            s.raw(b),
            ConcreteIxFn::from_lmad(ConcreteLmad {
                offset: 0,
                dims: vec![Dim {
                    card: -2,
                    stride: 1,
                }],
            }),
        );
        assert_eq!(copy_view(&v, &src), 0);
    }
}
