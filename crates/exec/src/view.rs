//! LMAD-addressed views over memory blocks.
//!
//! A [`View`]/[`ViewMut`] pairs a raw block handle with a concrete index
//! function; element access computes `base + ixfn(i, j, ...)` — exactly
//! the code the paper's compiler inlines per access. A block is untyped
//! words ([`crate::store`]); the view's element type says how to read
//! them. Views are the executor's: a kernel reaches memory only through
//! [`crate::KernelCtx`], as whole slices ([`View::as_slice`],
//! [`ViewMut::rows_mut`]) or as rows staged through a buffer
//! ([`View::read_row`], [`ViewMut::write_row`]). The VM moves elements it
//! does not interpret by *width* (4 or 8 bytes) and converts to and from
//! [`Value`] with [`View::get`] / [`ViewMut::set`] — or, for a single
//! point, with [`RawBuf::get`] / [`RawBuf::set`] at an offset it computed
//! itself, no view built.
//!
//! Views may alias (e.g. NW's kernel reads bars of the same block its
//! output is rebased into); the compiler's non-overlap proof is what makes
//! concurrent use sound, so all access goes through raw pointers with
//! explicit bounds checks — per element, once per contiguous run (the
//! copies and staged rows), or once per kernel call for slices.

use crate::store::RawBuf;
use crate::value::Value;
use arraymem_ir::ElemType;
use arraymem_lmad::concrete::AccessClass;
use arraymem_lmad::{ConcreteIxFn, Dim};
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

    pub fn ixfn(&self) -> &ConcreteIxFn {
        &self.ixfn
    }

    pub fn num_elems(&self) -> i64 {
        self.ixfn.num_elems()
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

    /// The same elements copied into `out`, run by run.
    pub(crate) fn load_strip<T: Copy>(&self, lo: usize, out: &mut [T]) {
        let dst = Runs::new(out.as_mut_ptr(), out.len(), 0, None);
        copy_runs(dst, self.runs(lo as i64), out.len() as i64)
    }

    /// The bytes the view can reach, `[lo, hi)`: its LMAD's span (a
    /// chain's whole block) clamped to the block, `None` if empty.
    fn span(&self) -> Option<(usize, usize)> {
        let last = self.buf.len as i64 - 1;
        let (lo, hi) = self
            .ixfn
            .as_single()
            .map_or(Some((0, last)), |l| l.span())?;
        let (lo, hi) = (lo.max(0) as usize, hi.min(last) as usize);
        let (at, w) = (self.buf.ptr as usize, self.buf.elem.size_bytes());
        (lo <= hi).then_some((at + lo * w, at + (hi + 1) * w))
    }

    /// Whether the two views' spans share a byte.
    pub(crate) fn meets(&self, other: &View) -> bool {
        let spans = self.span().zip(other.span());
        spans.is_some_and(|(a, b)| a.0 < b.1 && b.0 < a.1)
    }

    /// The first flat position of row `i` (the outer dimension fixed at
    /// `i`); panics unless `i` is a row and `len` its element count.
    fn row_start(&self, i: i64, len: usize) -> i64 {
        let dims = &self.ixfn.lmads.last().unwrap().dims;
        let (outer, row) = dims.split_first().expect("a rank-0 view has no rows");
        let row_len: i64 = row.iter().map(|d| d.card).product();
        assert!(
            (0..outer.card).contains(&i) && row_len == len as i64,
            "row {i} of {len} elements out of bounds of {} rows of {row_len}",
            outer.card
        );
        i * row_len
    }

    /// The view's elements in flat order from position `at`, as runs.
    fn runs<T>(&self, at: i64) -> Runs<'_, T> {
        assert_eq!(size_of::<T>(), self.buf.elem.size_bytes());
        Runs::new(self.buf.ptr as *const T, self.buf.len, at, Some(&self.ixfn))
    }

    /// Copy row `i` into `buf`, one bounds check per run end.
    pub(crate) fn read_row<T: Elem>(&self, i: i64, buf: &mut [T]) {
        assert_eq!(self.buf.elem, T::TYPE, "a row read as another type");
        self.load_strip(self.row_start(i, buf.len()) as usize, buf)
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

    /// Slide the view `delta` elements through its block: what the rows
    /// from `i` (a row, a tile of rows) become as the rows
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

    /// Copy `buf` into row `i`; see [`View::read_row`].
    pub(crate) fn write_row<T: Elem>(&self, i: i64, buf: &[T]) {
        assert_eq!(self.buf.elem, T::TYPE, "a row written as another type");
        self.store_strip(self.row_start(i, buf.len()) as usize, buf)
    }

    /// Rows `rows` as one slice (row `i` at `(i − rows.start)·row
    /// length`) if the view is one LMAD of `T` whose rows are dense
    /// row-major, one after another, inside the block. Checks the rows,
    /// not the whole view (a private tile's offset is negative); O(rank).
    #[allow(clippy::mut_from_ref)]
    pub(crate) fn rows_mut<T: Elem>(&self, rows: Range<i64>) -> Option<&mut [T]> {
        let l = self.ixfn.as_single().filter(|_| self.buf.elem == T::TYPE)?;
        let (outer, row) = l.dims.split_first()?;
        let row_len = row.iter().rev().try_fold(1, |len, d| {
            (d.card >= 0 && (d.card == 1 || d.stride == len)).then_some(len * d.card)
        })?;
        let (n, start) = (rows.end - rows.start, l.offset + rows.start * outer.stride);
        let (len, dense) = (n * row_len, n <= 1 || outer.stride == row_len);
        let inside = 0 <= rows.start && n >= 0 && rows.end <= outer.card && start >= 0;
        (dense && inside && (start + len) as usize <= self.buf.len).then_some(())?;
        // SAFETY: the rows are `len` elements from `start`, checked inside
        // the block above; the kernel context hands them out once per call
        // and keeps the call's other accesses off the view's span.
        Some(unsafe {
            std::slice::from_raw_parts_mut(
                (self.buf.ptr as *mut T).add(start as usize),
                len as usize,
            )
        })
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

    /// Store `src` as elements `[lo, lo + src.len())`, run by run.
    pub(crate) fn store_strip<T: Copy>(&self, lo: usize, src: &[T]) {
        let from = Runs::new(src.as_ptr(), src.len(), 0, None);
        copy_runs(self.runs(lo as i64), from, src.len() as i64)
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

/// Copy all elements of `src` into `dst` (same logical shape and element
/// type), returning the number of bytes moved. This is the runtime's one
/// copy routine — "update", "concat", the mapnest's row copy-out and
/// result download — run by run ([`copy_runs`]): one `memmove` for two
/// contiguous views. Elements move by width; their type is never looked
/// at.
pub(crate) fn copy_view(dst: &ViewMut, src: &View) -> u64 {
    let n = src.num_elems();
    debug_assert_eq!(dst.num_elems(), n);
    let width = src.buf.elem.size_bytes();
    match width {
        4 => copy_runs::<u32>(dst.runs(0), src.runs(0), n),
        _ => copy_runs::<u64>(dst.runs(0), src.runs(0), n),
    }
    n.max(0) as u64 * width as u64
}

/// Elements in flat order from position `at` of a block of `len` elements
/// at `ptr` — through an index function, or dense (`ixfn` none) — as runs
/// within blocks of `card` elements `stride` apart, the blocks stepped
/// along the `outer` dimensions.
struct Runs<'a, T> {
    ptr: *mut T,
    len: usize,
    at: i64,
    ixfn: Option<&'a ConcreteIxFn>,
    card: i64,
    stride: i64,
    outer: &'a [Dim<i64>],
    /// The block the last run lay in (first block 0): its first flat
    /// position, its offset and its index along the (innermost eight)
    /// `outer` dimensions.
    blk: (i64, i64, [i64; 8]),
}

impl<'a, T> Runs<'a, T> {
    /// One LMAD's innermost dimensions, while each continues the next, make
    /// a block; a chain's blocks are its elements; a dense buffer is one.
    fn new(ptr: *const T, len: usize, at: i64, ixfn: Option<&'a ConcreteIxFn>) -> Self {
        let dims = ixfn
            .and_then(|ix| ix.as_single())
            .map_or(&[][..], |l| &l.dims);
        let (mut card, stride) = match (ixfn, dims.last()) {
            (None, _) => (i64::MAX, 1),
            (_, last) => last.map_or((1, 0), |d| (d.card, d.stride)),
        };
        let mut k = dims.len().saturating_sub(1);
        while k > 0 && dims[k - 1].stride == card * stride {
            (k, card) = (k - 1, card * dims[k - 1].card);
        }
        // Block 0, where a contiguous view's every run lies (no division);
        // none yet for a chain, whose first element is computed when asked.
        let blk = match ixfn.map(|ix| ix.as_single()) {
            Some(None) => (i64::MIN, 0, [0; 8]),
            single => (0, single.flatten().map_or(0, |l| l.offset), [0; 8]),
        };
        let (ptr, outer) = (ptr as *mut T, &dims[..k]);
        Runs {
            ptr,
            len,
            at,
            ixfn,
            card,
            stride,
            outer,
            blk,
        }
    }

    /// The run from element `f` on, to the end of its block and at most
    /// `max` long: its first element, stride and length, both ends checked
    /// inside the block. The next block is a step of an odometer over the
    /// outer dimensions; only a jump, or a carry past the eighth, divides.
    #[inline(always)]
    fn run(&mut self, f: i64, max: i64) -> (*mut T, isize, usize) {
        let (f, card, stride) = (self.at + f, self.card, self.stride);
        let (b, o, idx) = &mut self.blk;
        if f == *b + card && step(self.outer, idx, o) {
            *b = f;
        } else if !(*b..*b + card).contains(&f) {
            *b = f - f.rem_euclid(card);
            let mut q = *b / card;
            for (d, i) in self.outer.iter().rev().zip(idx.iter_mut()) {
                (*i, q) = (q.rem_euclid(d.card), q.div_euclid(d.card));
            }
            *o = self.ixfn.map_or(*b, |ix| ix.index_flat(*b));
        }
        let (off, n) = (*o + (f - *b) * stride, max.min(*b + card - f));
        let last = off + (n - 1) * stride;
        assert!(
            n > 0 && off.min(last) >= 0 && (off.max(last) as usize) < self.len,
            "view access out of bounds: run {off}..={last} outside block of {}",
            self.len
        );
        // SAFETY: `off` is inside the block's `len` elements.
        let first = unsafe { self.ptr.add(off as usize) };
        (first, stride as isize, n as usize)
    }
}

/// Step the odometer `idx` (innermost first) over `dims` (outermost first)
/// by one, moving `off` with it; false past its end or its eighth digit.
#[inline(always)]
fn step(dims: &[Dim<i64>], idx: &mut [i64; 8], off: &mut i64) -> bool {
    for (d, i) in dims.iter().rev().zip(idx) {
        (*i, *off) = (*i + 1, *off + d.stride);
        if *i < d.card {
            return true;
        }
        (*i, *off) = (0, *off - d.card * d.stride);
    }
    false
}

/// Copy `n` elements in flat order from `src` to `dst`, a run at a time —
/// the destination's within the source's: one bounds check per run end,
/// none per element, nothing allocated.
fn copy_runs<T: Copy>(mut dst: Runs<T>, mut src: Runs<T>, n: i64) {
    let mut f = 0;
    while f < n {
        let (mut s, ss, len) = src.run(f, n - f);
        let end = f + len as i64;
        while f < end {
            let (d, ds, len) = dst.run(f, end - f);
            // SAFETY: both runs' ends are inside their blocks (checked by
            // `run`), so every element between them is; `copy` is a memmove,
            // as two views of one block may overlap.
            unsafe {
                if (ss, ds) == (1, 1) {
                    std::ptr::copy(s, d, len)
                } else {
                    for k in 0..len as isize {
                        *d.offset(k * ds) = *s.offset(k * ss)
                    }
                }
            }
            (s, f) = (s.wrapping_offset(len as isize * ss), f + len as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::InputValue;
    use arraymem_ir::ElemType;
    use arraymem_lmad::ConcreteLmad;

    /// Fix the outer logical dimension of an index function at `i`.
    fn fix_outer(ixfn: &ConcreteIxFn, i: i64) -> ConcreteIxFn {
        let mut out = ixfn.clone();
        let logical = out.lmads.last_mut().unwrap();
        assert!(!logical.dims.is_empty(), "cannot fix a rank-0 view");
        let outer = logical.dims.remove(0);
        debug_assert!(i >= 0 && i < outer.card, "row {i} out of {}", outer.card);
        logical.offset += i * outer.stride;
        out
    }

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
        v.write_row(2, &[0.0, 0.0, 0.0, 7.5f32]); // [2, 3]
        let mut row = [0f32; 4];
        v.read_row(2, &mut row);
        assert_eq!(row[3], 7.5);
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

    /// Runs walk an LMAD as its index function does: strips from every
    /// start and of every length, read and (where the layout is one to
    /// one) written, and whole copies between layouts of one shape — row
    /// major, padded, transposed, reversed, broadcast along a stride-0
    /// dimension, and reversed whole (one run of stride −1).
    #[test]
    fn runs_agree_with_the_index_function() {
        let layouts: [(i64, [(i64, i64); 3]); 6] = [
            (0, [(2, 12), (3, 4), (4, 1)]),
            (1, [(2, 20), (3, 5), (4, 1)]),
            (0, [(2, 1), (3, 2), (4, 6)]),
            (3, [(2, 12), (3, 4), (4, -1)]),
            (5, [(2, 0), (3, 4), (4, 1)]),
            (23, [(2, -12), (3, -4), (4, -1)]),
        ];
        let (mut s, block) = store_with((0..40).map(|x| x as f32).collect());
        let ids: Vec<usize> = layouts.iter().map(|_| s.alloc(ElemType::F32, 40)).collect();
        let dsts: Vec<RawBuf> = ids.into_iter().map(|b| s.raw(b)).collect();
        let view = |raw, (offset, dims): (i64, [(i64, i64); 3])| {
            let dims = dims.iter().map(|&(card, stride)| Dim { card, stride });
            let lmad = ConcreteLmad {
                offset,
                dims: dims.collect(),
            };
            ViewMut::new(raw, ConcreteIxFn::from_lmad(lmad))
        };
        let block = s.raw(block);
        for (k, &layout) in layouts.iter().enumerate() {
            let src = view(block, layout);
            let at = |f: i64| src.ixfn().index_flat(f) as f32;
            for lo in 0..24 {
                for len in 0..=24 - lo {
                    let mut buf = vec![-1f32; len];
                    src.load_strip(lo, &mut buf);
                    let expect: Vec<f32> = (lo..lo + len).map(|f| at(f as i64)).collect();
                    assert_eq!(buf, expect, "{layout:?} strip {lo}+{len}");
                }
            }
            for (&to, &dst_layout) in dsts.iter().zip(&layouts).filter(|(_, l)| l.1[0].1 != 0) {
                let dst = view(to, dst_layout);
                copy_view(&dst, &src);
                let got: Vec<f32> = (0..24).map(|f| dst.get(f).as_f32()).collect();
                assert_eq!(
                    got,
                    (0..24).map(at).collect::<Vec<_>>(),
                    "{layout:?} → {dst_layout:?}"
                );
                let written: Vec<f32> = (100..124).map(|x| x as f32).collect();
                dst.store_strip(k % 5, &written[k % 5..]);
                let got: Vec<f32> = (k as i64 % 5..24).map(|f| dst.get(f).as_f32()).collect();
                assert_eq!(got, written[k % 5..], "{dst_layout:?} store from {}", k % 5);
            }
        }
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
            // Both sides are contiguous: one run, one memmove.
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
        let v = View::new(s.raw(b), ix.clone());
        let got: Vec<f32> = (0..6).map(|i| v.get(i).as_f32()).collect();
        assert_eq!(got, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        // Copied and loaded run by run, an element at a time.
        let d = s.alloc(ElemType::F32, 6);
        let dst = ViewMut::new(s.raw(d), ConcreteIxFn::row_major(&[6]));
        assert_eq!(copy_view(&dst, &v), 24);
        let got: Vec<f32> = (0..6).map(|i| dst.get(i).as_f32()).collect();
        assert_eq!(got, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let mut strip = [0f32; 3];
        v.load_strip(2, &mut strip);
        assert_eq!(strip, [1.0, 4.0, 2.0]);
        // An empty chain copies nothing (its first element is never asked).
        let mut empty = ix;
        empty.lmads[2].dims[0].card = 0;
        let empty = View::new(s.raw(b), empty);
        let none = ViewMut::new(s.raw(d), ConcreteIxFn::row_major(&[0]));
        assert_eq!(copy_view(&none, &empty), 0);
    }
}

#[cfg(test)]
mod negative_len_tests {
    use super::*;
    use crate::store::MemStore;
    use arraymem_ir::ElemType;
    use arraymem_lmad::ConcreteLmad;

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
