//! Memory blocks and the store.
//!
//! A block is an untyped region of 8-byte words, as in the paper: only
//! the array bound to it (`@mem → ixfn` plus its element type) knows how
//! to read it. How a block's bytes are laid out, recycled and handed out
//! is known here and in [`crate::view`] (which moves them), nowhere else.
//!
//! The store recycles blocks through one free list bucketed by capacity,
//! driven by the compiler's last-use analysis: when the VM learns a block
//! is dead it calls [`MemStore::release`], and a later `alloc` of a
//! fitting size — of *any* element type — takes the block back instead of
//! growing the heap. A reused block is **not** re-zeroed (the whole point
//! — zero-filling is a full write of the block); the elided zeroing is
//! counted in [`MemStore::bytes_zeroing_elided`]. This relies on the same
//! discipline as the paper's memory blocks: an allocation is fully
//! written before it is read, which the differential tests check against
//! the pure-mode ground truth.

use crate::value::InputValue;
use arraymem_ir::ElemType;
use arraymem_symbolic::Sym;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
        let mut b = Block::vacated();
        b.recycle(elem, len)?;
        Ok(b)
    }

    /// What a block id holds while its storage is parked in the arena.
    fn vacated() -> Block {
        Block {
            words: Vec::new(),
            elem: ElemType::I64,
            len: 0,
        }
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

/// The free list of `capacity`'s size class, in a table of lists indexed
/// by [`size_bucket`] that grows on a bucket's first use.
fn bucket_mut<T>(lists: &mut Vec<Vec<T>>, capacity: usize) -> &mut Vec<T> {
    let bucket = size_bucket(capacity);
    if lists.len() <= bucket {
        lists.resize_with(bucket + 1, Vec::new);
    }
    &mut lists[bucket]
}

/// A block parked in the shared arena, tagged with the tenant that
/// donated it — adoption policy and scrubbing depend on the tag.
struct Parked {
    buf: Block,
    owner: u64,
}

/// Counters for one [`SharedArena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers currently parked across all free lists.
    pub parked: usize,
    /// Buffers ever donated by a store.
    pub donated: u64,
    /// Adoptions where the requester was the donor (contents survive;
    /// zero-fill elision applies as with a local free list).
    pub adopted_same_tenant: u64,
    /// Adoptions across a tenant boundary (contents scrubbed).
    pub adopted_cross_tenant: u64,
    /// Bytes currently charged to live blocks across *every* attached
    /// store.
    pub live_bytes: u64,
    /// High-water of [`live_bytes`](ArenaStats::live_bytes) over the
    /// arena's lifetime. Tenants overlap in time, so this is the
    /// arena-level peak — it can exceed any single tenant's
    /// `peak_bytes_live`, and the per-tenant *max* understates it
    /// whenever two tenants peak together.
    pub peak_bytes_live: u64,
}

/// Shared live/peak byte meter for one arena: every attached store
/// charges and uncharges it alongside its own `bytes_live`, so the
/// arena-level high-water reflects tenants that peak *concurrently*
/// (which a max over per-tenant peaks cannot).
#[derive(Clone, Default)]
struct ArenaMeter {
    live: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

impl ArenaMeter {
    fn charge(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn uncharge(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct ArenaInner {
    /// `free[size bucket]` → parked blocks.
    free: Vec<Vec<Parked>>,
    parked: usize,
    donated: u64,
    adopted_same: u64,
    adopted_cross: u64,
}

/// A cross-tenant free-list arena: stores attached to one arena donate
/// their recycled buffers and adopt each other's, so block recycling and
/// zero-fill elision work across tenants without sharing a store.
///
/// Isolation contract: a buffer adopted by the tenant that donated it
/// keeps its contents (same gamble as a local free list — the compiler
/// promises a full write before any read). A buffer crossing a tenant
/// boundary has its surviving prefix **zeroed** ("scrubbed") before the
/// adopter can build a view over it, so one tenant can never observe
/// another's recycled bytes. The adopting store still marks the prefix
/// [`CellState::Stale`] in shadow memory: checked mode's provenance
/// diagnostics fire identically whether a recycled block came from the
/// local free list, a same-tenant donation, or a scrubbed cross-tenant
/// one — reading a recycled cell before writing it is the bug, zeroed
/// or not.
#[derive(Clone, Default)]
pub struct SharedArena {
    inner: Arc<Mutex<ArenaInner>>,
    meter: ArenaMeter,
}

impl SharedArena {
    pub fn new() -> SharedArena {
        SharedArena::default()
    }

    pub fn stats(&self) -> ArenaStats {
        let g = self.inner.lock().unwrap();
        ArenaStats {
            parked: g.parked,
            donated: g.donated,
            adopted_same_tenant: g.adopted_same,
            adopted_cross_tenant: g.adopted_cross,
            live_bytes: self.meter.live.load(Ordering::Relaxed),
            peak_bytes_live: self.meter.peak.load(Ordering::Relaxed),
        }
    }

    fn donate(&self, buf: Block, owner: u64) {
        if buf.capacity_bytes() == 0 {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        bucket_mut(&mut g.free, buf.capacity_bytes()).push(Parked { buf, owner });
        g.parked += 1;
        g.donated += 1;
    }

    /// Take a parked block with capacity `>= bytes`, preferring one the
    /// requester donated itself. Returns the block and whether it crossed
    /// a tenant boundary (the caller must scrub if so).
    fn adopt(&self, bytes: usize, owner: u64) -> Option<(Block, bool)> {
        let start = size_bucket(bytes);
        let mut g = self.inner.lock().unwrap();
        // First pass: a same-owner fit anywhere (keeps elision alive);
        // second pass: any fit, paying the scrub.
        for same_only in [true, false] {
            for bucket in start..g.free.len() {
                let list = &mut g.free[bucket];
                let pos = list.iter().position(|p| {
                    p.buf.capacity_bytes() >= bytes && (!same_only || p.owner == owner)
                });
                if let Some(pos) = pos {
                    let p = list.swap_remove(pos);
                    let cross = p.owner != owner;
                    g.parked -= 1;
                    if cross {
                        g.adopted_cross += 1;
                    } else {
                        g.adopted_same += 1;
                    }
                    return Some((p.buf, cross));
                }
            }
        }
        None
    }
}

/// The store of memory blocks. Released blocks park in the free list and
/// are recycled by later allocations; everything else is arena-style —
/// block ids stay valid until the store drops.
#[derive(Default)]
pub struct MemStore {
    blocks: Vec<Block>,
    /// `live[id]` is false while `id` sits in a free list.
    live: Vec<bool>,
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
    /// Cross-tenant recycling arena, with this store's tenant tag.
    arena: Option<(SharedArena, u64)>,
    /// The attached arena's shared live/peak meter (cloned Arcs), updated
    /// on every charge/uncharge so the arena-level high-water sees
    /// concurrent tenants.
    arena_meter: Option<ArenaMeter>,
    /// Block ids whose buffers were donated to the arena; reused by the
    /// next adoption or fresh allocation so ids don't grow without bound
    /// over a server's lifetime.
    vacant: Vec<usize>,
    /// Allocations served by adopting an arena buffer (subset of
    /// [`blocks_reused`](Self::blocks_reused)).
    pub arena_blocks_adopted: u64,
    /// Bytes zeroed because an adopted buffer crossed a tenant boundary
    /// (elision forfeited for isolation).
    pub bytes_cross_tenant_scrubbed: u64,
    /// Per-color slabs backing the merge pass's coloring
    /// (`arraymem_core::merge`): `color_slots[c]` parks the block a
    /// carried release returned to color `c`, and the next allocation
    /// colored `c` pops it back — one slab-resident block per color in
    /// steady state instead of one per loop iteration.
    color_slots: Vec<Vec<usize>>,
    /// `ReleaseCarried` instructions that actually fired (the incoming
    /// block was proven distinct from the outgoing block and every
    /// guard).
    pub carried_releases: u64,
    /// Colored allocations served from their color's slab (subset of
    /// [`blocks_reused`](Self::blocks_reused)).
    pub color_slab_hits: u64,
}

impl MemStore {
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Join a cross-tenant recycling arena under tenant tag `tenant`.
    /// From here on, allocations that miss the local free list try the
    /// arena before the heap, and [`donate_free_blocks`]
    /// (MemStore::donate_free_blocks) hands parked blocks back.
    pub fn attach_arena(&mut self, arena: SharedArena, tenant: u64) {
        self.arena_meter = Some(arena.meter.clone());
        self.arena = Some((arena, tenant));
    }

    /// Drain every block parked in the local free list into the shared
    /// arena (no-op without an attached arena); returns the number
    /// donated. Servers call this after each execution so one tenant's
    /// end-of-run blocks can feed another tenant's next allocation.
    pub fn donate_free_blocks(&mut self) -> usize {
        let Some((arena, tenant)) = self.arena.clone() else {
            return 0;
        };
        let mut donated = 0;
        for bucket in 0..self.free.len() {
            while let Some(id) = self.free[bucket].pop() {
                let buf = std::mem::replace(&mut self.blocks[id], Block::vacated());
                if let Some(sh) = &mut self.shadow {
                    sh[id] = ShadowBlock::default();
                }
                self.vacant.push(id);
                arena.donate(buf, tenant);
                donated += 1;
            }
        }
        donated
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

    /// Put a (not yet live) buffer under a block id, reusing a vacated one
    /// — whose buffer was donated to the arena — when available.
    fn install(&mut self, b: Block) -> usize {
        if let Some(id) = self.vacant.pop() {
            self.blocks[id] = b;
            return id;
        }
        self.blocks.push(b);
        self.live.push(false);
        self.charged.push(0);
        if let Some(sh) = &mut self.shadow {
            sh.push(ShadowBlock::default());
        }
        self.blocks.len() - 1
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
        self.charged[id] = bytes;
        self.bytes_live += bytes;
        self.peak_bytes_live = self.peak_bytes_live.max(self.bytes_live);
        if let Some(m) = &self.arena_meter {
            m.charge(bytes);
        }
        Ok(id)
    }

    /// The one way a recycled buffer comes back, whichever list held it:
    /// resize keeping the stale prefix (zeroing elided — or, for a buffer
    /// that crossed a tenant boundary, `scrub`bed so recycled bytes never
    /// do), zero the grown tail, count the reuse. The prefix is `Stale`
    /// in shadow memory even when scrubbed: a recycled region must be
    /// fully written before it is read, so checked mode fires identically
    /// on either side of a tenant boundary.
    fn revive(
        &mut self,
        id: usize,
        elem: ElemType,
        len: usize,
        scrub: bool,
    ) -> Result<usize, String> {
        let b = &mut self.blocks[id];
        let kept = b.recycle(elem, len)?;
        if scrub {
            b.bytes_mut()[..kept].fill(0);
            self.bytes_cross_tenant_scrubbed += kept as u64;
        } else {
            self.bytes_zeroing_elided += kept as u64;
        }
        self.blocks_reused += 1;
        self.go_live(id, kept)
    }

    /// The one way a live block dies: uncharge it and poison its shadow
    /// cells, recording the statement after which the release plan fired
    /// (later reads report it in their use-after-release diagnostic).
    /// Returns `false` — and does nothing — for a block already dead: two
    /// memory variables can name one block after an in-place update.
    fn retire(&mut self, block: usize, site: Option<Sym>) -> bool {
        if !self.live[block] {
            return false;
        }
        self.live[block] = false;
        let bytes = std::mem::take(&mut self.charged[block]);
        self.bytes_live -= bytes;
        if let Some(m) = &self.arena_meter {
            m.uncharge(bytes);
        }
        if let Some(sh) = &mut self.shadow {
            let s = &mut sh[block];
            s.released_by = site;
            s.cells.fill(CellState::Released);
        }
        true
    }

    fn park(&mut self, block: usize) {
        bucket_mut(&mut self.free, self.blocks[block].capacity_bytes()).push(block);
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
            return self.revive(id, elem, len, false);
        }
        if let Some((arena, tenant)) = self.arena.clone() {
            if let Some((buf, cross)) = arena.adopt(bytes, tenant) {
                self.arena_blocks_adopted += 1;
                let id = self.install(buf);
                return self.revive(id, elem, len, cross);
            }
        }
        let fresh = Block::new(elem, len)?;
        self.bytes_allocated += bytes as u64;
        self.num_allocs += 1;
        let id = self.install(fresh);
        self.go_live(id, 0)
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

    /// Return a dead block to the free list. Safe to call twice for the
    /// same id; the second call is a no-op.
    pub fn release(&mut self, block: usize) {
        self.release_at(block, None);
    }

    /// [`release`](MemStore::release), recording the release site for the
    /// shadow layer.
    pub(crate) fn release_at(&mut self, block: usize, site: Option<Sym>) {
        if self.retire(block, site) {
            self.park(block);
        }
    }

    /// Prepare per-color slabs for a plan lowered with `n` colors:
    /// [`release_colored`](MemStore::release_colored) parks into them and
    /// [`alloc_colored`](MemStore::alloc_colored) pops from them
    /// ([`drain_colors`](MemStore::drain_colors) emptied the previous
    /// run's).
    pub(crate) fn begin_colors(&mut self, n: u32) {
        self.color_slots.clear();
        self.color_slots.resize(n as usize, Vec::new());
    }

    /// Park a dead block in color `c`'s slab instead of the free list:
    /// the next allocation colored `c` (the loop's next-iteration
    /// ping-pong block) takes it back. Same shadow poisoning as a plan
    /// release, so checked mode catches a premature carried release
    /// exactly like a premature plan release.
    pub(crate) fn release_colored(&mut self, block: usize, color: u32, site: Option<Sym>) {
        if self.retire(block, site) {
            self.color_slots[color as usize].push(block);
            self.carried_releases += 1;
        }
    }

    /// Allocate a block colored `c`: pop a fitting block from the color's
    /// slab if one is parked there (the previous iteration's carried
    /// release), falling back to [`alloc`](MemStore::alloc) otherwise.
    pub(crate) fn alloc_colored(
        &mut self,
        elem: ElemType,
        len: usize,
        color: u32,
    ) -> Result<usize, String> {
        let bytes = block_bytes(elem, len)?;
        let slot = &mut self.color_slots[color as usize];
        let pos = slot
            .iter()
            .position(|&id| self.blocks[id].capacity_bytes() >= bytes);
        let Some(pos) = pos else {
            return self.try_alloc(elem, len);
        };
        let id = slot.swap_remove(pos);
        self.color_slab_hits += 1;
        self.revive(id, elem, len, false)
    }

    /// Move every block still parked in a color slab to the ordinary free
    /// list and drop the slabs. Called at the end of a run, before
    /// [`release_all_live`](MemStore::release_all_live), so slab
    /// residents recycle across runs and feed
    /// [`donate_free_blocks`](MemStore::donate_free_blocks) exactly like
    /// plan-released blocks.
    pub(crate) fn drain_colors(&mut self) {
        for id in std::mem::take(&mut self.color_slots).into_iter().flatten() {
            self.park(id);
        }
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
        s.release_at(a, Some(site));
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

    fn fill_i64(s: &mut MemStore, block: usize, x: i64) {
        let r = s.raw(block);
        let sl = unsafe { std::slice::from_raw_parts_mut(r.ptr as *mut i64, r.len) };
        sl.fill(x);
    }

    fn read_i64(s: &mut MemStore, block: usize) -> Vec<i64> {
        let r = s.raw(block);
        unsafe { std::slice::from_raw_parts(r.ptr as *const i64, r.len) }.to_vec()
    }

    #[test]
    fn arena_same_tenant_adoption_keeps_contents() {
        let arena = SharedArena::new();
        let mut s = MemStore::new();
        s.attach_arena(arena.clone(), 1);
        let a = s.alloc(ElemType::I64, 64);
        fill_i64(&mut s, a, 7);
        s.release(a);
        assert_eq!(s.donate_free_blocks(), 1);
        assert_eq!(arena.stats().parked, 1);
        // The same tenant gets its own bytes back: elision preserved.
        let b = s.alloc(ElemType::I64, 64);
        assert_eq!(read_i64(&mut s, b), vec![7; 64]);
        assert_eq!(s.arena_blocks_adopted, 1);
        assert_eq!(s.bytes_cross_tenant_scrubbed, 0);
        assert_eq!(s.bytes_zeroing_elided, 64 * 8);
        assert_eq!(s.num_allocs, 1, "adoption must not count as an alloc");
        assert_eq!(arena.stats().adopted_same_tenant, 1);
    }

    #[test]
    fn arena_cross_tenant_adoption_scrubs_but_stays_stale() {
        let arena = SharedArena::new();
        let mut a_store = MemStore::new();
        a_store.attach_arena(arena.clone(), 1);
        let mut b_store = MemStore::new();
        b_store.attach_arena(arena.clone(), 2);
        b_store.set_shadow(true);
        let a = a_store.alloc(ElemType::I64, 64);
        fill_i64(&mut a_store, a, 7);
        a_store.release(a);
        a_store.donate_free_blocks();
        // Tenant 2 adopts tenant 1's block: bytes scrubbed to zero, but
        // the shadow prefix stays Stale — provenance still fires on a
        // read-before-write, zeroed or not.
        let b = b_store.alloc(ElemType::I64, 64);
        assert_eq!(read_i64(&mut b_store, b), vec![0; 64]);
        assert_eq!(b_store.bytes_cross_tenant_scrubbed, 64 * 8);
        assert_eq!(b_store.bytes_zeroing_elided, 0);
        assert_eq!(b_store.arena_blocks_adopted, 1);
        assert!((0..64).all(|i| b_store.shadow_cell(b, i) == Some(CellState::Stale)));
        assert_eq!(arena.stats().adopted_cross_tenant, 1);
    }

    #[test]
    fn arena_prefers_the_requesters_own_donation() {
        let arena = SharedArena::new();
        let mut a_store = MemStore::new();
        a_store.attach_arena(arena.clone(), 1);
        let mut b_store = MemStore::new();
        b_store.attach_arena(arena.clone(), 2);
        // Both tenants donate a fitting block (allocated while the arena
        // is still empty); tenant 2's own donation must win even though
        // tenant 1's was parked first.
        let a = a_store.alloc(ElemType::I64, 64);
        fill_i64(&mut a_store, a, 1);
        let b = b_store.alloc(ElemType::I64, 64);
        fill_i64(&mut b_store, b, 2);
        a_store.release(a);
        a_store.donate_free_blocks();
        b_store.release(b);
        b_store.donate_free_blocks();
        let c = b_store.alloc(ElemType::I64, 64);
        assert_eq!(read_i64(&mut b_store, c), vec![2; 64]);
        assert_eq!(arena.stats().adopted_same_tenant, 1);
        assert_eq!(arena.stats().adopted_cross_tenant, 0);
    }

    #[test]
    fn donated_ids_are_vacated_and_reused() {
        let arena = SharedArena::new();
        let mut s = MemStore::new();
        s.attach_arena(arena.clone(), 1);
        let a = s.alloc(ElemType::I64, 32);
        s.release(a);
        s.donate_free_blocks();
        let n = s.num_blocks();
        // Adoption reinstalls into the vacated id: no growth.
        let b = s.alloc(ElemType::I64, 32);
        assert_eq!(b, a);
        assert_eq!(s.num_blocks(), n);
    }

    #[test]
    fn colored_release_parks_in_slab_and_colored_alloc_pops_it() {
        let mut s = MemStore::new();
        s.begin_colors(2);
        let a = s.alloc_colored(ElemType::I64, 64, 0).unwrap();
        fill_i64(&mut s, a, 7);
        s.release_colored(a, 0, None);
        assert_eq!(s.carried_releases, 1);
        // An uncolored allocation must not raid the slab.
        let other = s.alloc(ElemType::I64, 64);
        assert_ne!(other, a);
        // Nor an allocation of a different color.
        let c1 = s.alloc_colored(ElemType::I64, 64, 1).unwrap();
        assert_ne!(c1, a);
        // The matching color pops the parked block, elision intact.
        let b = s.alloc_colored(ElemType::I64, 64, 0).unwrap();
        assert_eq!(b, a);
        assert_eq!(read_i64(&mut s, b), vec![7; 64]);
        assert_eq!(s.color_slab_hits, 1);
        assert_eq!(s.num_allocs, 3, "a slab hit must not count as an alloc");
    }

    #[test]
    fn colored_release_uncharges_liveness() {
        let mut s = MemStore::new();
        s.begin_colors(1);
        let a = s.alloc_colored(ElemType::I64, 64, 0).unwrap();
        assert_eq!(s.peak_bytes_live, 512);
        s.release_colored(a, 0, None);
        let b = s.alloc_colored(ElemType::I64, 64, 0).unwrap();
        assert_eq!(b, a);
        // Ping-pong through the slab: peak stays one block, not two.
        assert_eq!(s.peak_bytes_live, 512);
    }

    #[test]
    fn drain_colors_moves_slab_residents_to_free_lists() {
        let mut s = MemStore::new();
        s.begin_colors(1);
        let a = s.alloc_colored(ElemType::I64, 64, 0).unwrap();
        s.release_colored(a, 0, None);
        s.drain_colors();
        let b = s.alloc(ElemType::I64, 64);
        assert_eq!(b, a, "drained slab blocks must recycle normally");
        assert_eq!(s.blocks_reused, 1);
    }

    #[test]
    fn colored_release_poisons_shadow_cells() {
        use arraymem_symbolic::sym;
        let mut s = MemStore::new();
        s.set_shadow(true);
        s.begin_colors(1);
        let a = s.alloc_colored(ElemType::I64, 4, 0).unwrap();
        let site = sym("carried_site");
        s.release_colored(a, 0, Some(site));
        assert_eq!(s.shadow_cell(a, 0), Some(CellState::Released));
        assert_eq!(s.shadow_released_by(a), Some(site));
        let b = s.alloc_colored(ElemType::I64, 4, 0).unwrap();
        assert_eq!(b, a);
        assert_eq!(s.shadow_released_by(b), None);
        assert_eq!(s.shadow_cell(b, 0), Some(CellState::Stale));
    }

    #[test]
    fn arena_meter_sees_concurrent_tenant_peaks() {
        let arena = SharedArena::new();
        let mut a_store = MemStore::new();
        a_store.attach_arena(arena.clone(), 1);
        let mut b_store = MemStore::new();
        b_store.attach_arena(arena.clone(), 2);
        // Both tenants live at once: the arena peak is their *sum*,
        // which the max over per-tenant peaks (512) understates.
        let a = a_store.alloc(ElemType::I64, 64);
        let b = b_store.alloc(ElemType::I64, 64);
        assert_eq!(arena.stats().live_bytes, 1024);
        assert_eq!(arena.stats().peak_bytes_live, 1024);
        assert_eq!(a_store.peak_bytes_live.max(b_store.peak_bytes_live), 512);
        a_store.release(a);
        b_store.release(b);
        assert_eq!(arena.stats().live_bytes, 0);
        assert_eq!(arena.stats().peak_bytes_live, 1024);
    }

    /// Adversarial oversized donation: the donor parks a block strictly
    /// larger than the cross-tenant request. The adopter must see exactly
    /// the requested length, every visible *byte* scrubbed to zero, the
    /// shadow prefix still `Stale` — and the donor's bytes past the kept
    /// prefix must never resurface, even when the adopter later grows the
    /// block back to the donor's full size within the retained capacity.
    #[test]
    fn oversized_cross_tenant_adoption_leaks_no_donor_byte() {
        let arena = SharedArena::new();
        let mut donor = MemStore::new();
        donor.attach_arena(arena.clone(), 1);
        let mut adopter = MemStore::new();
        adopter.attach_arena(arena.clone(), 2);
        adopter.set_shadow(true);
        // 96 sentinel elements donated; 40 requested across the boundary.
        let a = donor.alloc(ElemType::I64, 96);
        fill_i64(&mut donor, a, 0x5A5A_5A5A_5A5A_5A5A_u64 as i64);
        donor.release(a);
        donor.donate_free_blocks();
        let b = adopter.alloc(ElemType::I64, 40);
        assert_eq!(arena.stats().adopted_cross_tenant, 1);
        assert_eq!(
            adopter.len(b),
            40,
            "adoption must not over-expose the donor"
        );
        // Byte-level inspection: no sentinel byte anywhere in the view.
        let r = adopter.raw(b);
        let bytes = unsafe { std::slice::from_raw_parts(r.ptr as *const u8, r.len * 8) };
        assert!(
            bytes.iter().all(|&x| x == 0),
            "a donor byte survived the cross-tenant scrub"
        );
        assert_eq!(adopter.bytes_cross_tenant_scrubbed, 40 * 8);
        // Scrubbed is not initialized: provenance still says Stale.
        assert!((0..40).all(|i| adopter.shadow_cell(b, i) == Some(CellState::Stale)));
        // Grow back to the donor's size inside the retained capacity: the
        // regrown tail must be zeros, not the donor's parked bytes.
        adopter.release(b);
        let c = adopter.alloc(ElemType::I64, 96);
        assert_eq!(c, b, "regrowth within capacity must recycle in place");
        let r = adopter.raw(c);
        let bytes = unsafe { std::slice::from_raw_parts(r.ptr as *const u8, r.len * 8) };
        assert!(
            bytes[40 * 8..].iter().all(|&x| x == 0),
            "donor bytes past the kept prefix resurfaced on regrowth"
        );
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
