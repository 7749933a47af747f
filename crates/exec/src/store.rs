//! Memory blocks and the store.
//!
//! A block is an untyped region of 8-byte words, as in the paper: only
//! the array bound to it (`@mem → ixfn` plus its element type) knows how
//! to read it. How a block's bytes are laid out, recycled and handed out
//! is known here and in [`crate::view`] (which moves them), nowhere else.
//!
//! The store recycles blocks through one free list bucketed by capacity,
//! driven by the compiler's last-use analysis: when the VM learns a block
//! is dead it releases it, and a later `alloc` of a fitting size — of
//! *any* element type — takes the block back instead of growing the heap. A reused block is **not** re-zeroed (the whole point
//! — zero-filling is a full write of the block); the elided zeroing is
//! counted in [`MemStore::bytes_zeroing_elided`]. This relies on the same
//! discipline as the paper's memory blocks: an allocation is fully
//! written before it is read, which the differential tests check against
//! the pure-mode ground truth.
//!
//! The free list is the one recycle path, a loop's carried releases
//! included. A block has one owner: the VM holds it through a handle that
//! carries the block's generation, and a release through a handle of an
//! earlier life frees nothing ([`MemStore::release_handle`]).
//!
//! A block never leaves the store that allocated it: each store has its
//! own free list, so stale bytes are only ever seen by the tenant that
//! wrote them. Stores may share a [`FleetMeter`], which counts their live
//! bytes together and moves nothing.

use crate::value::InputValue;
use arraymem_ir::ElemType;
use arraymem_symbolic::Sym;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-cell shadow state, tracked only while the store's shadow layer is
/// enabled (checked mode). One entry per *element* of each block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CellState {
    /// Recycled without zero-fill; never written since. Reading this is
    /// exactly the bug the zeroing elision gambles against.
    Stale,
    /// Zero-filled at fresh allocation (or the grown tail of a recycle).
    Zeroed,
    /// Program input data.
    Input,
    /// Written by the statement binding this name (write provenance).
    Written(Sym),
    /// The block was returned to the free list; any later read is a
    /// use-after-release (the release plan claimed the last use passed).
    Released,
}

/// Shadow bookkeeping for one block.
#[derive(Default)]
struct ShadowBlock {
    cells: Vec<CellState>,
    /// Statement after which the release plan freed the block, if any.
    released_by: Option<Sym>,
}

/// The storage behind one memory block: 8-byte-aligned words, tagged at
/// (re)allocation with the element type and count of the array that will
/// live there. The tag only sizes the [`RawBuf`] that views bounds-check
/// against; the words carry no type, so a released `f32` block can serve
/// an `i64` request. Booleans are 64-bit words (0/1):
/// `ElemType::Bool::size_bytes()` is 8.
///
/// Invariant: the bytes of the last word past `len` elements are zero
/// (views cannot reach them and [`recycle`](Block::recycle) re-zeroes
/// them), so growing a block only ever exposes zeros.
struct Block {
    words: Vec<u64>,
    elem: ElemType,
    /// Length in elements of `elem`.
    len: usize,
}

/// The one place an allocation is sized: the bytes of `len` elements of
/// `elem`, or `Err` when that overflows or exceeds `isize::MAX` (no Rust
/// allocation may). A size reaches here from a program input, so it must
/// fail the request, not wrap into a short block behind a long `RawBuf`.
fn block_bytes(elem: ElemType, len: usize) -> Result<usize, String> {
    len.checked_mul(elem.size_bytes())
        .filter(|&bytes| bytes <= isize::MAX as usize)
        .ok_or_else(|| format!("allocation of {len} {elem} elements exceeds the address space"))
}

/// `Vec::resize` that fails with `Err` instead of aborting the process
/// when the grown vector cannot be allocated.
fn try_resize<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) -> Result<(), String> {
    v.try_reserve_exact(len.saturating_sub(v.len()))
        .map_err(|_| format!("out of memory sizing a block to {len} entries"))?;
    v.resize(len, fill);
    Ok(())
}

impl Block {
    fn new(elem: ElemType, len: usize) -> Result<Block, String> {
        let mut b = Block {
            words: Vec::new(),
            elem,
            len: 0,
        };
        b.recycle(elem, len)?;
        Ok(b)
    }

    fn size_bytes(&self) -> usize {
        self.len * self.elem.size_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: `words` is an initialized `[u64]`, every byte of which is
        // a valid `u8`; the slice covers exactly that storage and borrows
        // `self` mutably for as long as it lives.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.words.len() * 8)
        }
    }

    /// Re-tag a recycled block as `len` elements of `elem` without
    /// re-zeroing what is already there. Returns the bytes whose
    /// zero-fill was elided — the surviving prefix, `min(old, new)` bytes;
    /// everything past it reads zero.
    fn recycle(&mut self, elem: ElemType, len: usize) -> Result<usize, String> {
        let (old, new) = (self.size_bytes(), block_bytes(elem, len)?);
        try_resize(&mut self.words, new.div_ceil(8), 0)?;
        if new % 8 != 0 {
            // A shrink can cut through a word: restore the invariant.
            self.bytes_mut()[new..].fill(0);
        }
        self.elem = elem;
        self.len = len;
        Ok(old.min(new))
    }
}

/// A raw, type-tagged handle to a block's storage. Views address it via
/// concrete LMADs; disjointness of concurrent writes is the compiler's
/// proof obligation (that is the point of the paper).
#[derive(Clone, Copy)]
pub struct RawBuf {
    pub ptr: *mut u8,
    /// Length in *elements*.
    pub len: usize,
    pub elem: ElemType,
}

unsafe impl Send for RawBuf {}
unsafe impl Sync for RawBuf {}

/// Power-of-two size class of a capacity in bytes: bucket `b` holds
/// capacities in `[2^b, 2^(b+1))` (zero-capacity blocks land in bucket 0).
fn size_bucket(bytes: usize) -> usize {
    (usize::BITS - bytes.max(1).leading_zeros() - 1) as usize
}

/// What [`FleetMeter::stats`] reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes currently charged to live blocks across every metered store.
    pub live_bytes: u64,
    /// High-water of `live_bytes` over the meter's lifetime: tenants
    /// overlap in time, so it can exceed every tenant's own peak.
    pub peak_bytes_live: u64,
    /// Always 0: no block leaves its store. Kept because `benchmark/` reads it.
    pub adopted_same_tenant: u64,
    /// Always 0: no block leaves its store. Kept because `benchmark/` reads it.
    pub adopted_cross_tenant: u64,
}

/// A live/peak byte meter shared by several stores (a server's tenants):
/// each store built [`metered`](MemStore::metered) charges and uncharges
/// it alongside its own `bytes_live`, so the high-water reflects tenants
/// that peak *concurrently* (which a max over per-tenant peaks cannot).
/// It counts bytes only; every block stays in the store that allocated it.
#[derive(Clone, Default)]
pub struct FleetMeter {
    live: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

impl FleetMeter {
    fn charge(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn uncharge(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live_bytes: self.live.load(Ordering::Relaxed),
            peak_bytes_live: self.peak.load(Ordering::Relaxed),
            ..ArenaStats::default()
        }
    }
}

/// The store of memory blocks. Released blocks park in the free list and
/// are recycled by later allocations; a block id stays valid, and its
/// storage stays in this store, until the store drops.
#[derive(Default)]
pub struct MemStore {
    blocks: Vec<Block>,
    /// `live[id]` is false while `id` sits in a free list.
    live: Vec<bool>,
    /// `generation[id]` counts the times `id` went live: a handle names
    /// the block only in the life it was made in.
    generation: Vec<u32>,
    /// `free[size bucket]` → block ids.
    free: Vec<Vec<usize>>,
    /// Total elements × size *freshly* allocated, in bytes (reuse is
    /// counted separately).
    pub bytes_allocated: u64,
    pub num_allocs: u64,
    /// Allocations served from the free list instead of the heap.
    pub blocks_reused: u64,
    /// Bytes of zero-fill skipped thanks to reuse.
    pub bytes_zeroing_elided: u64,
    /// Bytes charged per live block (the *requested* length, so the
    /// figure is comparable whether an allocation was fresh or recycled
    /// into a larger buffer); zero while the block sits in a free list.
    charged: Vec<u64>,
    /// Total bytes currently charged to live blocks.
    bytes_live: u64,
    /// High-water mark of [`bytes_live`](Self::bytes_live) since the last
    /// `reset_peak`.
    pub peak_bytes_live: u64,
    /// Checked-mode shadow layer: one [`ShadowBlock`] per block while
    /// enabled, `None` otherwise (the fast modes pay nothing for it).
    shadow: Option<Vec<ShadowBlock>>,
    /// The fleet meter this store charges beside `bytes_live`, if any.
    meter: Option<FleetMeter>,
}

impl MemStore {
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// A store that also charges `meter`, which other stores may share.
    pub fn metered(meter: FleetMeter) -> MemStore {
        MemStore {
            meter: Some(meter),
            ..MemStore::default()
        }
    }

    /// Restart the peak-liveness high-water mark from the current live
    /// set. Called at the start of a run body, after inputs are loaded:
    /// inputs are charged identically under every pass configuration, so
    /// per-run peaks stay comparable across a session.
    pub(crate) fn reset_peak(&mut self) {
        self.peak_bytes_live = self.bytes_live;
    }

    /// Turn the shadow layer on (checked mode) or off (the fast modes).
    /// Pre-existing blocks (recycled across runs by a session) start
    /// all-`Stale`: nothing written in an earlier run may be read before
    /// *this* run writes it.
    pub(crate) fn set_shadow(&mut self, on: bool) {
        self.shadow = on.then(|| {
            let stale = |b: &Block| ShadowBlock {
                cells: vec![CellState::Stale; b.len],
                released_by: None,
            };
            self.blocks.iter().map(stale).collect()
        });
    }

    /// Record that statement `writer` wrote element `off` of `block`.
    pub(crate) fn shadow_mark(&mut self, block: usize, off: usize, writer: Sym) {
        if let Some(sh) = &mut self.shadow {
            sh[block].cells[off] = CellState::Written(writer);
        }
    }

    /// The shadow state of one cell (None while the layer is off).
    pub(crate) fn shadow_cell(&self, block: usize, off: usize) -> Option<CellState> {
        self.shadow.as_ref().map(|sh| sh[block].cells[off])
    }

    /// The statement after which the release plan freed `block`, if the
    /// block currently sits released with a recorded site.
    pub(crate) fn shadow_released_by(&self, block: usize) -> Option<Sym> {
        self.shadow.as_ref().and_then(|sh| sh[block].released_by)
    }

    /// The one way a block becomes live: charge the bytes it was sized
    /// for and start its shadow cells over — the first `stale` bytes are
    /// a recycled region (`Stale`), the rest was zero-filled.
    fn go_live(&mut self, id: usize, stale: usize) -> Result<usize, String> {
        let b = &self.blocks[id];
        let (len, elem_size, bytes) = (b.len, b.elem.size_bytes(), b.size_bytes() as u64);
        if let Some(sh) = &mut self.shadow {
            let s = &mut sh[id];
            s.released_by = None;
            s.cells.clear();
            if let Err(e) = try_resize(&mut s.cells, len, CellState::Zeroed) {
                // The block stays dead; keep its storage reachable.
                self.park(id);
                return Err(e);
            }
            s.cells[..stale.div_ceil(elem_size)].fill(CellState::Stale);
        }
        self.live[id] = true;
        self.generation[id] = self.generation[id].wrapping_add(1);
        self.charged[id] = bytes;
        self.bytes_live += bytes;
        self.peak_bytes_live = self.peak_bytes_live.max(self.bytes_live);
        if let Some(m) = &self.meter {
            m.charge(bytes);
        }
        Ok(id)
    }

    /// The one way a recycled block comes back: resize keeping the stale
    /// prefix (zeroing elided, and `Stale` in shadow memory), zero the
    /// grown tail, count the reuse.
    fn revive(&mut self, id: usize, elem: ElemType, len: usize) -> Result<usize, String> {
        let kept = self.blocks[id].recycle(elem, len)?;
        self.bytes_zeroing_elided += kept as u64;
        self.blocks_reused += 1;
        self.go_live(id, kept)
    }

    /// The one way a live block dies: uncharge it, poison its shadow
    /// cells, recording the statement after which the release plan fired
    /// (later reads report it in their use-after-release diagnostic), and
    /// park it on the free list. Returns `false` — and does nothing — for
    /// a block already dead: two memory variables can name one block.
    fn retire(&mut self, block: usize, site: Option<Sym>) -> bool {
        if !self.live[block] {
            return false;
        }
        self.live[block] = false;
        let bytes = std::mem::take(&mut self.charged[block]);
        self.bytes_live -= bytes;
        if let Some(m) = &self.meter {
            m.uncharge(bytes);
        }
        if let Some(sh) = &mut self.shadow {
            let s = &mut sh[block];
            s.released_by = site;
            s.cells.fill(CellState::Released);
        }
        self.park(block);
        true
    }

    /// Put a dead block on the free list of its size class (the table
    /// grows on a bucket's first use).
    fn park(&mut self, block: usize) {
        let bucket = size_bucket(self.blocks[block].capacity_bytes());
        if self.free.len() <= bucket {
            self.free.resize_with(bucket + 1, Vec::new);
        }
        self.free[bucket].push(block);
    }

    /// Pop a released block with capacity `>= bytes`, if any. Buckets
    /// above `size_bucket(bytes)` hold only fitting blocks; the starting
    /// bucket needs a capacity check.
    fn take_reusable(&mut self, bytes: usize) -> Option<usize> {
        let start = size_bucket(bytes);
        let fits = |&id: &usize| self.blocks[id].capacity_bytes() >= bytes;
        if let Some(pos) = self.free.get(start)?.iter().position(fits) {
            return Some(self.free[start].swap_remove(pos));
        }
        self.free[start + 1..].iter_mut().find_map(Vec::pop)
    }

    /// Allocate a block of `len` elements; returns its id. Fresh blocks
    /// are zero-initialized; recycled blocks keep their stale contents
    /// (zeroing elided) — callers must fully write before reading, the
    /// same obligation every memory-mode destination already has.
    ///
    /// # Panics
    /// When `len` elements exceed the address space or memory runs out;
    /// the VM sizes blocks from program inputs and calls
    /// [`try_alloc`](MemStore::try_alloc).
    pub fn alloc(&mut self, elem: ElemType, len: usize) -> usize {
        self.try_alloc(elem, len)
            .unwrap_or_else(|e| panic!("MemStore::alloc: {e}"))
    }

    /// [`alloc`](MemStore::alloc) with an oversized or unsatisfiable
    /// request as an `Err` that leaves the store as it was.
    pub(crate) fn try_alloc(&mut self, elem: ElemType, len: usize) -> Result<usize, String> {
        let bytes = block_bytes(elem, len)?;
        if let Some(id) = self.take_reusable(bytes) {
            return self.revive(id, elem, len);
        }
        self.blocks.push(Block::new(elem, len)?);
        self.live.push(false);
        self.generation.push(0);
        self.charged.push(0);
        if let Some(sh) = &mut self.shadow {
            sh.push(ShadowBlock::default());
        }
        self.bytes_allocated += bytes as u64;
        self.num_allocs += 1;
        self.go_live(self.blocks.len() - 1, 0)
    }

    /// Allocate a `len`-element block holding the program-input array
    /// `data` (the caller checked both against the parameter's type).
    /// Inputs recycle like any other allocation, so a warm run uploads
    /// into the blocks its predecessor released instead of growing the
    /// store; every cell is legitimately readable from the start.
    pub(crate) fn alloc_input(
        &mut self,
        elem: ElemType,
        len: usize,
        data: &InputValue,
    ) -> Result<usize, String> {
        let (data_elem, bytes) = data.array_bytes().expect("input is an array");
        assert!(
            data_elem == elem && bytes.len() == len * elem.size_bytes(),
            "input checked against the parameter type"
        );
        let id = self.try_alloc(elem, len)?;
        self.blocks[id].bytes_mut()[..bytes.len()].copy_from_slice(bytes);
        if let Some(sh) = &mut self.shadow {
            sh[id].cells.fill(CellState::Input);
        }
        Ok(id)
    }

    /// Return a dead block to the free list (a free block stays as it is).
    /// An id names whoever owns the block now, so only its owner may call
    /// this; the VM releases through [`release_handle`](Self::release_handle).
    pub fn release(&mut self, block: usize) {
        self.retire(block, None);
    }

    /// The handle of a live block: its id and current generation.
    pub(crate) fn handle(&self, block: usize) -> (usize, u32) {
        (block, self.generation[block])
    }

    /// Release a [`handle`](Self::handle)'s block, recording the site for
    /// the shadow layer, only while the handle's generation is current: a
    /// stale handle frees nothing. Returns whether the block died.
    pub(crate) fn release_handle(&mut self, (block, g): (usize, u32), site: Option<Sym>) -> bool {
        self.generation[block] == g && self.retire(block, site)
    }

    /// Release every live block — end-of-run recycling, so a store reused
    /// across runs (a [`crate::Session`]) serves the next run's
    /// allocations from this run's blocks.
    pub(crate) fn release_all_live(&mut self) {
        for id in 0..self.blocks.len() {
            self.release(id);
        }
    }

    pub fn raw(&mut self, block: usize) -> RawBuf {
        let b = &mut self.blocks[block];
        RawBuf {
            len: b.len,
            elem: b.elem,
            ptr: b.words.as_mut_ptr() as *mut u8,
        }
    }

    pub fn elem(&self, block: usize) -> ElemType {
        self.blocks[block].elem
    }

    pub fn len(&self, block: usize) -> usize {
        self.blocks[block].len
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroes_and_counts() {
        let mut s = MemStore::new();
        let b = s.alloc(ElemType::F32, 10);
        assert_eq!(s.len(b), 10);
        assert_eq!(s.bytes_allocated, 40);
        let r = s.raw(b);
        assert_eq!(r.len, 10);
        assert_eq!(r.elem, ElemType::F32);
        let b2 = s
            .alloc_input(ElemType::I64, 3, &InputValue::ArrayI64(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(s.len(b2), 3);
        assert_eq!(s.bytes_allocated, 40 + 24);
        assert_eq!(s.num_allocs, 2);
    }

    #[test]
    fn release_then_alloc_reuses_block() {
        let mut s = MemStore::new();
        let a = s.alloc(ElemType::F32, 1000);
        s.release(a);
        let b = s.alloc(ElemType::F32, 800);
        assert_eq!(b, a, "shrinking realloc must recycle the block");
        assert_eq!(s.len(b), 800);
        assert_eq!(s.num_allocs, 1, "reuse must not count as an alloc");
        assert_eq!(s.blocks_reused, 1);
        assert_eq!(s.bytes_zeroing_elided, 800 * 4);
    }

    #[test]
    fn growth_within_capacity_reuses_and_zeroes_tail() {
        let mut s = MemStore::new();
        let a = s.alloc(ElemType::I64, 100);
        {
            let r = s.raw(a);
            let sl = unsafe { std::slice::from_raw_parts_mut(r.ptr as *mut i64, r.len) };
            sl.fill(7);
        }
        s.release(a);
        // 100 elements leave capacity >= 100; 60 fits in the same bucket.
        let b = s.alloc(ElemType::I64, 60);
        assert_eq!(b, a);
        s.release(b);
        let c = s.alloc(ElemType::I64, 100);
        assert_eq!(c, a);
        let r = s.raw(c);
        let sl = unsafe { std::slice::from_raw_parts(r.ptr as *const i64, r.len) };
        // Prefix keeps stale contents (zeroing elided), grown tail is zeroed.
        assert!(sl[..60].iter().all(|&x| x == 7));
        assert!(sl[60..].iter().all(|&x| x == 0));
    }

    #[test]
    fn double_release_is_a_noop() {
        let mut s = MemStore::new();
        let a = s.alloc(ElemType::F32, 16);
        s.release(a);
        s.release(a);
        let b = s.alloc(ElemType::F32, 16);
        let c = s.alloc(ElemType::F32, 16);
        assert_eq!(b, a);
        assert_ne!(c, a, "one release must grant at most one reuse");
    }

    #[test]
    fn shadow_tracks_cell_lifecycle_across_recycling() {
        use arraymem_symbolic::sym;
        let mut s = MemStore::new();
        s.set_shadow(true);
        // Fresh allocation: zero-filled cells.
        let a = s.alloc(ElemType::I64, 4);
        assert_eq!(s.shadow_cell(a, 0), Some(CellState::Zeroed));
        // A write leaves provenance.
        let w = sym("writer");
        s.shadow_mark(a, 2, w);
        assert_eq!(s.shadow_cell(a, 2), Some(CellState::Written(w)));
        // Release records the site and poisons every cell.
        let site = sym("last_use");
        assert!(s.release_handle(s.handle(a), Some(site)));
        assert_eq!(s.shadow_cell(a, 0), Some(CellState::Released));
        assert_eq!(s.shadow_released_by(a), Some(site));
        // Recycling: surviving prefix is stale, grown tail (none here,
        // the request shrinks) — and the release site is cleared.
        let b = s.alloc(ElemType::I64, 3);
        assert_eq!(b, a);
        assert_eq!(s.shadow_released_by(b), None);
        assert!((0..3).all(|i| s.shadow_cell(b, i) == Some(CellState::Stale)));
        // Growing within capacity: zeroed tail past the kept prefix.
        s.release(b);
        let c = s.alloc(ElemType::I64, 4);
        assert_eq!(c, a);
        assert_eq!(s.shadow_cell(c, 2), Some(CellState::Stale));
        assert_eq!(s.shadow_cell(c, 3), Some(CellState::Zeroed));
        // Input allocations are readable everywhere.
        let d = s
            .alloc_input(ElemType::I64, 2, &InputValue::ArrayI64(vec![1, 2]))
            .unwrap();
        assert_eq!(s.shadow_cell(d, 1), Some(CellState::Input));
        // Disabling drops the layer entirely.
        s.set_shadow(false);
        assert_eq!(s.shadow_cell(c, 0), None);
        // Re-enabling marks every pre-existing block stale.
        s.set_shadow(true);
        assert_eq!(s.shadow_cell(d, 0), Some(CellState::Stale));
    }

    #[test]
    fn a_stale_handle_never_frees_the_next_owner() {
        let mut s = MemStore::new();
        let a = s.alloc(ElemType::I64, 64);
        let old = s.handle(a);
        assert!(s.release_handle(old, None));
        assert!(!s.release_handle(old, None), "a dead block dies once");
        // Another allocation revives the block: it has a new owner, which
        // a release through the old handle must leave live and charged.
        let b = s.alloc(ElemType::I64, 64);
        assert_eq!(b, a);
        assert!(
            !s.release_handle(old, None),
            "a stale handle freed the new owner"
        );
        s.reset_peak();
        assert_eq!(s.peak_bytes_live, 512, "the new owner must stay charged");
        assert_ne!(
            s.alloc(ElemType::I64, 64),
            b,
            "the new owner must stay off the free list"
        );
        // The owner's own handle still releases it.
        assert!(s.release_handle(s.handle(b), None));
    }

    #[test]
    fn arena_meter_sees_concurrent_tenant_peaks() {
        let meter = FleetMeter::default();
        let mut a_store = MemStore::metered(meter.clone());
        let mut b_store = MemStore::metered(meter.clone());
        // Both tenants live at once: the fleet peak is their *sum*,
        // which the max over per-tenant peaks (512) understates.
        let a = a_store.alloc(ElemType::I64, 64);
        let b = b_store.alloc(ElemType::I64, 64);
        assert_eq!(meter.stats().live_bytes, 1024);
        assert_eq!(meter.stats().peak_bytes_live, 1024);
        assert_eq!(a_store.peak_bytes_live.max(b_store.peak_bytes_live), 512);
        a_store.release(a);
        b_store.release(b);
        assert_eq!(meter.stats().live_bytes, 0);
        assert_eq!(meter.stats().peak_bytes_live, 1024);
        // A recycle is charged again; the blocks stay in their stores.
        assert_eq!(b_store.alloc(ElemType::I64, 64), b);
        assert_eq!(meter.stats().live_bytes, 512);
        assert_eq!((a_store.num_blocks(), b_store.num_blocks()), (1, 1));
    }

    #[test]
    fn release_all_live_recycles_everything() {
        let mut s = MemStore::new();
        let a = s.alloc(ElemType::F32, 10);
        let b = s.alloc(ElemType::F64, 10);
        s.release_all_live();
        assert_eq!(s.alloc(ElemType::F32, 10), a);
        assert_eq!(s.alloc(ElemType::F64, 10), b);
        assert_eq!(s.num_allocs, 2);
        assert_eq!(s.blocks_reused, 2);
    }
}
