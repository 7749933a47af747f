//! The element paths of the VM do not touch the heap: what a warm run
//! allocates is a property of its *program* — a few vectors per
//! instruction, the register file, the results — not of how many elements
//! or loop iterations it processes. Counted, not timed, so the reading is
//! exact on any machine.
//!
//! The histogram's loop used to allocate 25 times per iteration (a deep
//! copy of an index function for every array it named, a `Vec` of
//! coordinates, a slice transform, a fresh view); a gather or a lambda map
//! cloned nothing per element but is held to the same bar — a lambda map's
//! lane scratch and resolved ops live on the machine, so it is held to it
//! per *strip* too, which is what the third size is for. A kernel map is
//! held to it per *instance*: one kernel call runs a whole pool chunk, its
//! addressing and staging scratch hoisted out of its loop (ROADMAP item
//! 5c), so SpMV's row sums, LBM's cells, NN's points, OptionPricing's paths
//! and LocVolCalib's options cost the same allocations at every size. NW
//! and LUD launch a map per loop iteration over their blocked matrix, so
//! their allocations grow with the launches, never with the blocks.
//!
//! One test in a binary of its own: the allocator counts the whole
//! process.

use arraymem_exec::{Mode, Session};
use arraymem_workloads::harness::Case;
use arraymem_workloads::irregular::{histogram_case, permutation_case, spmv_case};
use arraymem_workloads::{lbm, locvolcalib, lud, nn, nw, optionpricing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations of one warm `Session::run_plan` of the optimized or
/// the unoptimized program (`Memory`, one thread).
fn warm_run_allocations(case: &Case, optimized: bool) -> u64 {
    let compiled = case.compile(optimized);
    let mut session = Session::new();
    let h = session
        .prepare_full(
            &compiled.program,
            &case.kernels,
            &[],
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .expect("prepare");
    let mut run = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        session
            .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, 1)
            .expect("run");
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    // Two runs warm the store's free lists and the machine's scratch.
    run();
    run();
    run()
}

#[test]
fn a_warm_run_allocates_per_instruction_not_per_element() {
    const SMALL: usize = 2_000;
    const LARGE: usize = 20_000;
    /// Some 200 strips per lambda map.
    const HUGE: usize = 200_000;
    /// Slack between two sizes: a free list or a scratch vector may grow
    /// once more at the larger one.
    const SLACK: u64 = 8;

    let same_at_every_size = |name: &str, sizes: &[usize], case: fn(usize) -> Case| {
        for optimized in [true, false] {
            let counts: Vec<u64> = sizes
                .iter()
                .map(|&n| warm_run_allocations(&case(n), optimized))
                .collect();
            assert!(
                counts.iter().all(|c| c.abs_diff(counts[0]) <= SLACK),
                "{name} (optimized: {optimized}): {counts:?} allocations at n = {sizes:?}"
            );
        }
    };
    same_at_every_size("histogram", &[SMALL, LARGE, HUGE], |n| {
        histogram_case("n/64", n, 64, 1)
    });
    same_at_every_size("permutation", &[SMALL, LARGE, HUGE], |n| {
        permutation_case("n", n, 1)
    });
    // One kernel instance per row, cell, point or path.
    same_at_every_size("spmv", &[SMALL, LARGE, HUGE], |n| {
        spmv_case("n", n, n, 8, 1)
    });
    same_at_every_size("lbm", &[SMALL, LARGE], |n| {
        lbm::case("n/100", (n / 100, 10, 10), 2, 1)
    });
    same_at_every_size("nn", &[SMALL, LARGE], |n| nn::case("n", n, 4, 1));
    same_at_every_size("optionpricing", &[SMALL, LARGE], |n| {
        optionpricing::case("n", n, 16, 1)
    });
    same_at_every_size("locvolcalib", &[16, 64, 256], |n| {
        locvolcalib::case("n", n, 32, 4, 1)
    });

    // Over a q×q blocked matrix NW launches 2q − 1 maps and LUD 3q +
    // q(q − 1)/2, against q² and some q³/3 instances. Allocations that grow
    // with the launches are a polynomial in q of the launches' degree, so
    // at equally spaced q their next finite difference vanishes.
    let grows_with_launches = |name: &str, qs: &[usize], case: fn(usize) -> Case| {
        for optimized in [true, false] {
            let counts: Vec<i64> = qs
                .iter()
                .map(|&q| warm_run_allocations(&case(q), optimized) as i64)
                .collect();
            let mut diff = counts.clone();
            for _ in 1..qs.len() {
                diff = diff.windows(2).map(|w| w[1] - w[0]).collect();
            }
            assert!(
                diff[0].unsigned_abs() <= SLACK,
                "{name} (optimized: {optimized}): {counts:?} allocations at q = {qs:?}"
            );
        }
    };
    grows_with_launches("nw", &[8, 20, 32], |q| nw::case("q", q, 16, 1));
    grows_with_launches("lud", &[8, 16, 24, 32], |q| lud::case("q", q, 16, 1));
}
