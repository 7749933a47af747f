//! Multi-tenant server correctness: the concurrency tier.
//!
//! These tests pin the server layer's three contended mechanisms under
//! real thread interleavings:
//!
//! - the sharded plan cache's **single-flight** guarantee (a stampede of
//!   identical requests lowers once; an options-toggle race never
//!   collides keys);
//! - **tenant isolation** (each tenant's store recycles only its own
//!   blocks, keeping the zero-fill elision and the checked-mode shadow,
//!   and a warm tenant's store stops growing);
//! - **admission control** (bounded in-flight, FIFO overflow queue,
//!   typed rejection, and truthful metrics).
//!
//! Run with `ARRAYMEM_THREADS=8` (scripts/verify.sh does) so the
//! work-stealing pool is wide enough to interleave for real.

use arraymem_bench::tables::table_cases;
use arraymem_core::{compile, Options};
use arraymem_exec::{
    execute_plan, Diagnostic, InputValue, KernelRegistry, MemStore, Mode, OutputValue, PlanCache,
    Stats,
};
use arraymem_ir::{BinOp, Block, Builder, ElemType, Exp, Program, ScalarExp, Stm};
use arraymem_server::{ExecRequest, Server, ServerConfig, ServerError};
use arraymem_symbolic::Poly;
use arraymem_workloads::irregular::{spmv_case, spmv_reference};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// Two `replicate [4] 7` blocks — nonzero i64 cells, so stale bytes are
/// distinguishable from a fresh block's zeros. Two blocks because the
/// reader below allocates twice (scratch + copy target) and both
/// allocations must find a released block to recycle.
fn writer_program() -> Program {
    let bld = Builder::new("writer");
    let mut b = bld.block();
    let xs = b.replicate_typed("xs", ElemType::I64, vec![c(4)], ScalarExp::i64(7));
    let ys = b.replicate_typed("ys", ElemType::I64, vec![c(4)], ScalarExp::i64(7));
    bld.finish(b.finish(vec![xs, ys]))
}

/// `y = copy s` of an unwritten scratch array: whatever bytes the
/// allocator handed out escape to the caller. The one legal program
/// whose output *is* the recycled block's content.
fn scratch_reader_program() -> Program {
    let bld = Builder::new("reader");
    let mut b = bld.block();
    let s = b.scratch("s", ElemType::I64, vec![c(4)]);
    let y = b.copy("y", s);
    bld.finish(b.finish(vec![y]))
}

/// `Stats::merge` applies the aggregation each row of the field table
/// names: counters and timers sum, the peak takes the max, diagnostics
/// append, the cache-hit flag ANDs. (That *every* field has a row — and
/// so an aggregation — is the table's doing: `Stats` has no other
/// definition.)
#[test]
fn stats_merge_applies_each_aggregation_kind() {
    let ms = Duration::from_millis;
    let finding = |stm: &str| Diagnostic::UninitRead {
        stm: stm.into(),
        block: 1,
        offset: 2,
        ixfn: "ix".into(),
    };
    let a = Stats {
        num_allocs: 2,
        peak_bytes_live: 700,
        total_time: ms(23),
        diagnostics: vec![finding("a")],
        plan_cache_hit: true,
        ..Stats::default()
    };
    let b = Stats {
        num_allocs: 200,
        peak_bytes_live: 70, // smaller than a's: max must keep 700
        total_time: ms(2300),
        diagnostics: vec![finding("b1"), finding("b2")],
        plan_cache_hit: false,
        ..Stats::default()
    };
    let mut m = a.clone();
    m.merge(&b);
    assert_eq!(m.num_allocs, 202);
    assert_eq!(m.peak_bytes_live, 700, "peak is a max, not a sum");
    assert_eq!(m.total_time, ms(2323));
    assert_eq!(m.diagnostics.len(), 3, "diagnostics append");
    assert!(!m.plan_cache_hit, "one miss poisons the AND");
    // AND of two hits stays a hit.
    let mut both = a.clone();
    both.merge(&a);
    assert!(both.plan_cache_hit);
    // The counter view carries the integer fields by name, merged.
    let counters: Vec<_> = m.counters().collect();
    assert!(counters.contains(&("num_allocs", 202)));
    assert!(counters.contains(&("peak_bytes_live", 700)));
    assert!(!counters.iter().any(|(k, _)| *k == "total_time"));
}

/// K identical concurrent prepares lower exactly once. The build hook
/// holds the winning build open until every other thread has parked on
/// the in-flight key, so all K-1 are *forced* through the coalescing
/// path — no scheduling luck involved.
#[test]
fn stampede_of_identical_prepares_lowers_once() {
    const K: usize = 8;
    let release = Arc::new(AtomicBool::new(false));
    let mut cache = PlanCache::new(4);
    let gate = Arc::clone(&release);
    cache.build_hook = Some(Box::new(move || {
        while !gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }));
    let cache = Arc::new(cache);
    let kernels = KernelRegistry::new();
    let prog = writer_program();
    let barrier = Barrier::new(K);
    let plans = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let cache = &cache;
                let kernels = &kernels;
                let prog = &prog;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    cache
                        .prepare_full(prog, kernels, &[], &[], &[])
                        .expect("prepare")
                })
            })
            .collect();
        // The builder is parked in the hook; everyone else must reach the
        // wait before the build can publish.
        while cache.stats().stampedes_coalesced < (K - 1) as u64 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("prepare thread panicked"))
            .collect::<Vec<_>>()
    });
    let s = cache.stats();
    assert_eq!(s.builds, 1, "single-flight: one lowering for K requests");
    assert_eq!(s.cache_hits, (K - 1) as u64);
    assert_eq!(s.stampedes_coalesced, (K - 1) as u64);
    assert_eq!(cache.len(), 1);
    let (first, _) = &plans[0];
    let mut built = 0;
    for (plan, outcome) in &plans {
        assert!(Arc::ptr_eq(first, plan), "every caller adopts one plan");
        if !outcome.hit {
            built += 1;
        } else {
            assert!(outcome.coalesced, "all non-builders were forced to park");
        }
    }
    assert_eq!(built, 1);
}

/// Checked-mode and memory-mode prepares of the *same program* race on
/// the same cache: the circuit-check records are part of the key, so the
/// two must never collide — a collision would hand the sanitizer a plan
/// with no shadow bookkeeping (or tax memory mode with it).
#[test]
fn options_toggle_race_never_collides_keys() {
    let case = &table_cases("nw", true).expect("nw cases")[0];
    let compiled = case.compile(true);
    let kernels = &case.kernels;
    let checks: Vec<_> = compiled.report.checks().cloned().collect();
    assert!(!checks.is_empty(), "nw must record circuit checks");
    let memory_key = PlanCache::key(
        &compiled.program,
        kernels,
        &[],
        &compiled.report.merges,
        &compiled.report.par_safety,
    );
    let checked_key = PlanCache::key(
        &compiled.program,
        kernels,
        &checks,
        &compiled.report.merges,
        &compiled.report.par_safety,
    );
    assert_ne!(memory_key, checked_key, "check records must key the plan");
    for _ in 0..20 {
        // Single shard: both keys contend on the same single-flight lock.
        let cache = PlanCache::new(1);
        let barrier = Barrier::new(2);
        let (mem, chk) = std::thread::scope(|scope| {
            let mem = scope.spawn(|| {
                barrier.wait();
                cache
                    .prepare_full(
                        &compiled.program,
                        kernels,
                        &[],
                        &compiled.report.merges,
                        &compiled.report.par_safety,
                    )
                    .expect("memory prepare")
            });
            let chk = scope.spawn(|| {
                barrier.wait();
                cache
                    .prepare_full(
                        &compiled.program,
                        kernels,
                        &checks,
                        &compiled.report.merges,
                        &compiled.report.par_safety,
                    )
                    .expect("checked prepare")
            });
            (mem.join().expect("memory"), chk.join().expect("checked"))
        });
        assert_eq!(mem.1.key, memory_key);
        assert_eq!(chk.1.key, checked_key);
        assert!(
            !Arc::ptr_eq(&mem.0, &chk.0),
            "distinct options must lower distinct plans"
        );
        let s = cache.stats();
        assert_eq!(
            (s.builds, s.cache_hits, s.stampedes_coalesced),
            (2, 0, 0),
            "two keys, two builds, nothing coalesced"
        );
        assert_eq!(cache.len(), 2);
    }
}

/// Tenants never share a block, end to end through the server: a
/// tenant's next request recycles its own released blocks (zero-fill
/// elided, so its stale bytes stay visible, and the checked-mode shadow
/// calls the read uninitialized), while another tenant's first request
/// gets fresh, zero-filled blocks of its own store.
#[test]
fn tenants_never_share_a_block() {
    let writer = compile(&writer_program(), &Options::default()).expect("compile writer");
    let reader = compile(&scratch_reader_program(), &Options::default()).expect("compile reader");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // Tenant A fills two blocks with 7s; they go back to A's free list.
    let write_req = ExecRequest::from_compiled(&writer, &kernels, &[], &[], Mode::Memory);
    let (out, _) = server.execute("a", write_req).expect("writer run");
    assert_eq!(
        out,
        vec![
            OutputValue::ArrayI64(vec![7, 7, 7, 7]),
            OutputValue::ArrayI64(vec![7, 7, 7, 7]),
        ]
    );

    // Same tenant reads scratch: its own blocks come back unzeroed — the
    // zero-fill elision across runs, the optimization being protected.
    let read_req = ExecRequest::from_compiled(&reader, &kernels, &[], &[], Mode::Memory);
    let (out, stats) = server.execute("a", read_req).expect("same-tenant read");
    assert_eq!(
        out,
        vec![OutputValue::ArrayI64(vec![7, 7, 7, 7])],
        "same-tenant recycling must keep the stale bytes (elided zero-fill)"
    );
    assert_eq!((stats.blocks_reused, stats.num_allocs), (2, 0), "{stats:?}");
    assert!(
        stats.bytes_zeroing_elided >= 64,
        "2 × 4 × i64 elided: {stats:?}"
    );

    // Under the sanitizer the same read is flagged: recycled cells are
    // stale until written.
    let checked_req = ExecRequest::from_compiled(&reader, &kernels, &[], &[], Mode::Checked);
    let (_, stats) = server
        .execute("a", checked_req)
        .expect("same-tenant checked read");
    assert!(
        stats
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::UninitRead { .. })),
        "a recycled, unwritten cell must be flagged: {stats:?}"
    );

    // Tenant B's scratch comes from its own store, which has nothing to
    // recycle: fresh zeros, never A's 7s, and nothing stale to flag.
    let (out, stats) = server.execute("b", checked_req).expect("other-tenant read");
    assert_eq!(
        out,
        vec![OutputValue::ArrayI64(vec![0, 0, 0, 0])],
        "tenant B must never observe tenant A's bytes"
    );
    assert_eq!((stats.blocks_reused, stats.num_allocs), (0, 2), "{stats:?}");
    assert!(stats.diagnostics.is_empty(), "{stats:?}");

    let arena = server.arena_stats();
    assert_eq!(
        (arena.adopted_same_tenant, arena.adopted_cross_tenant),
        (0, 0)
    );
    assert_eq!(server.global_stats().stats.bytes_cross_tenant_scrubbed, 0);
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 3);
    assert_eq!(server.tenant_stats("b").expect("tenant b").runs, 1);
    assert_eq!(server.global_stats().runs, 4);
}

/// A malformed request is that request's error, not its tenant's end. A
/// wrong-length input array must not panic inside `execute`: the tenant's
/// mutex is held there, and a poisoned mutex fails every later request of
/// the tenant *and* `global_stats()`. The request comes back as a typed
/// error, leaves nothing charged to the tenant, and the tenant's next
/// good request succeeds.
#[test]
fn malformed_input_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("add8");
    let xs = bld.array_param("xs", ElemType::F32, vec![c(8)]);
    let ys = bld.array_param("ys", ElemType::F32, vec![c(8)]);
    let mut b = bld.block();
    let zs = b.concat("zs", vec![xs, ys]);
    let compiled = compile(&bld.finish(b.finish(vec![zs])), &Options::default()).expect("compile");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let eight = InputValue::ArrayF32((0..8).map(|i| i as f32).collect());

    // The first array uploads fine; the second holds 3 elements for `[8]f32`.
    let bad = [eight.clone(), InputValue::ArrayF32(vec![1.0; 3])];
    let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &bad, Mode::Memory);
    let err = server
        .execute("a", req)
        .expect_err("a 3-element array is not an [8]f32");
    assert!(
        matches!(&err, ServerError::Execution(msg) if msg.contains("length mismatch")),
        "{err}"
    );
    assert_eq!(
        server.arena_stats().live_bytes,
        0,
        "the rejected request's uploaded block must not stay charged"
    );

    let good = [eight.clone(), eight];
    let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &good, Mode::Memory);
    let (out, _) = server.execute("a", req).expect("the tenant's next request");
    let expect: Vec<f32> = (0..8).chain(0..8).map(|i| i as f32).collect();
    assert_eq!(out, vec![OutputValue::ArrayF32(expect)]);
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 1);
    assert_eq!(server.global_stats().runs, 1);
}

/// A zero divisor arriving as a request input is that request's typed
/// error — not a panic unwinding with the tenant's store locked: the
/// tenant serves its next request and the aggregate stats still answer.
#[test]
fn division_by_zero_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("quot");
    let x = bld.scalar_param("x", ElemType::I64);
    let mut b = bld.block();
    let quotient = ScalarExp::bin(BinOp::Div, ScalarExp::i64(7), ScalarExp::var(x));
    let q = b.scalar("q", ElemType::I64, quotient);
    let compiled = compile(&bld.finish(b.finish(vec![q])), &Options::default()).expect("compile");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let run = |x| {
        let inputs = [InputValue::I64(x)];
        let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &inputs, Mode::Memory);
        server.execute("a", req).map(|(out, _)| out)
    };
    let err = run(0).expect_err("7 / 0 has no value");
    assert!(
        matches!(&err, ServerError::Execution(msg) if msg.contains("undefined")),
        "{err}"
    );
    assert_eq!(
        run(2).expect("the tenant's next request"),
        [OutputValue::I64(3)]
    );
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 1);
    assert_eq!(server.global_stats().runs, 1);
}

/// A product of request inputs that does not fit an `i64` is that
/// request's typed error — a debug build panicked on it with the tenant's
/// store locked, a release build answered with the wrapped value: the
/// tenant serves its next request and the aggregate stats still answer.
#[test]
fn integer_overflow_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("prod");
    let x = bld.scalar_param("x", ElemType::I64);
    let mut b = bld.block();
    let product = ScalarExp::bin(BinOp::Mul, ScalarExp::var(x), ScalarExp::var(x));
    let q = b.scalar("q", ElemType::I64, product);
    let compiled = compile(&bld.finish(b.finish(vec![q])), &Options::default()).expect("compile");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let run = |x| {
        let inputs = [InputValue::I64(x)];
        let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &inputs, Mode::Memory);
        server.execute("a", req).map(|(out, _)| out)
    };
    let err = run(1 << 32).expect_err("2^64 has no i64");
    assert!(
        matches!(&err, ServerError::Execution(msg) if msg.contains("overflows")),
        "{err}"
    );
    assert_eq!(
        run(-3).expect("the tenant's next request"),
        [OutputValue::I64(9)]
    );
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 1);
    assert_eq!(server.global_stats().runs, 1);
}

/// A coordinate arriving as a request input that lies outside the array
/// it indexes — `xs[5]` of 4 elements panicked in the view's block assert
/// with the tenant's mutex held, `m[0, 4]` of a 2×3 array silently wrote
/// `m[1, 1]` — is that request's typed error: the tenant serves its next
/// request and the aggregate stats still answer.
#[test]
fn out_of_range_index_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("pick");
    let k = bld.scalar_param("k", ElemType::I64);
    let xs = bld.array_param("xs", ElemType::I64, vec![c(4)]);
    let mut b = bld.block();
    let q = b.scalar(
        "q",
        ElemType::I64,
        ScalarExp::Index(xs, vec![ScalarExp::var(k)]),
    );
    let pick = compile(&bld.finish(b.finish(vec![q])), &Options::default()).expect("compile");

    let mut bld = Builder::new("poke");
    let j = bld.scalar_param("j", ElemType::I64);
    let m = bld.array_param("m", ElemType::I64, vec![c(2), c(3)]);
    let mut b = bld.block();
    let at = vec![ScalarExp::i64(0), ScalarExp::var(j)];
    let m2 = b.update_scalar("m2", m, at, ScalarExp::i64(-7));
    let poke = compile(&bld.finish(b.finish(vec![m2])), &Options::default()).expect("compile");

    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let run = |compiled, at: i64, data: Vec<i64>| {
        let inputs = [InputValue::I64(at), InputValue::ArrayI64(data)];
        let req = ExecRequest::from_compiled(compiled, &kernels, &[], &inputs, Mode::Memory);
        server.execute("a", req).map(|(out, _)| out)
    };
    for (compiled, at, data) in [
        (&pick, 5, vec![10, 11, 12, 13]),
        (&pick, -1, vec![10, 11, 12, 13]),
        (&poke, 4, (0..6).collect()),
    ] {
        let err = run(compiled, at, data).expect_err("no such element");
        assert!(
            matches!(&err, ServerError::Execution(msg) if msg.contains("out of bounds for shape")),
            "{at}: {err}"
        );
        assert_eq!(server.arena_stats().live_bytes, 0, "{at}: nothing charged");
    }
    assert_eq!(
        run(&pick, 2, vec![10, 11, 12, 13]).expect("the tenant's next request"),
        [OutputValue::I64(12)]
    );
    assert_eq!(
        run(&poke, 2, (0..6).collect()).expect("and the one after"),
        [OutputValue::ArrayI64(vec![0, 1, -7, 3, 4, 5])]
    );
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 2);
    assert_eq!(server.global_stats().runs, 2);
}

/// A map width arriving as a request input that one of the map's inputs
/// does not have — five elements of a three-element array ran off the end
/// of the block and panicked in the view's assert with the tenant's mutex
/// held — is that request's typed error: the tenant serves its next
/// request and the aggregate stats still answer.
#[test]
fn map_wider_than_its_input_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("squares");
    let n = bld.scalar_param("n", ElemType::I64);
    let m = bld.scalar_param("m", ElemType::I64);
    let xs = bld.array_param("xs", ElemType::F32, vec![Poly::var(n)]);
    let mut b = bld.block();
    let ys = b.map_lambda("ys", Poly::var(m), vec![xs], ElemType::F32, |lb, ps| {
        let x = ScalarExp::var(ps[0]);
        let square = ScalarExp::bin(BinOp::Mul, x.clone(), x);
        vec![lb.scalar("y", ElemType::F32, square)]
    });
    let compiled = compile(&bld.finish(b.finish(vec![ys])), &Options::default()).expect("compile");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let run = |m| {
        let inputs = [
            InputValue::I64(3),
            InputValue::I64(m),
            InputValue::ArrayF32(vec![1.0, 2.0, 3.0]),
        ];
        let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &inputs, Mode::Memory);
        server.execute("a", req).map(|(out, _)| out)
    };
    let err = run(5).expect_err("xs has three elements");
    assert!(
        matches!(&err, ServerError::Execution(msg)
            if msg == "map of width 5 over an input of 3 elements"),
        "{err}"
    );
    assert_eq!(server.arena_stats().live_bytes, 0, "nothing charged");
    assert_eq!(
        run(3).expect("the tenant's next request"),
        [OutputValue::ArrayF32(vec![1.0, 4.0, 9.0])]
    );
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 1);
    assert_eq!(server.global_stats().runs, 1);
}

/// A block size arriving as a request input that no block can have —
/// `2^61` elements wrapped to a 0-byte block behind a 2^61-element view
/// (SIGSEGV), `i64::MAX` panicked `capacity overflow` with the tenant's
/// mutex held — is that request's typed error: the tenant serves its next
/// request and the aggregate stats still answer.
#[test]
fn oversized_allocation_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("iota_n");
    let n = bld.scalar_param("n", ElemType::I64);
    let mut b = bld.block();
    let xs = b.iota("xs", Poly::var(n));
    let compiled = compile(&bld.finish(b.finish(vec![xs])), &Options::default()).expect("compile");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let run = |n| {
        let inputs = [InputValue::I64(n)];
        let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &inputs, Mode::Memory);
        server.execute("a", req).map(|(out, _)| out)
    };
    for n in [1i64 << 61, i64::MAX] {
        let err = run(n).expect_err("no block holds that many elements");
        assert!(
            matches!(&err, ServerError::Execution(msg) if msg.contains("address space")),
            "{n}: {err}"
        );
        assert_eq!(server.arena_stats().live_bytes, 0, "{n}: nothing charged");
    }
    assert_eq!(
        run(3).expect("the tenant's next request"),
        [OutputValue::ArrayI64(vec![0, 1, 2])]
    );
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 1);
    assert_eq!(server.global_stats().runs, 1);
}

/// A size computed from a request input that overflows `i64` — `iota
/// (n*n)` at `n = 2^32` wrapped to an empty array and answered `Ok` — is
/// that request's typed error, worded as an overflow: the tenant serves
/// its next request and the aggregate stats still answer.
#[test]
fn overflowing_size_is_a_typed_error_and_the_tenant_lives_on() {
    let mut bld = Builder::new("iota_nn");
    let n = bld.scalar_param("n", ElemType::I64);
    let mut b = bld.block();
    let xs = b.iota("xs", Poly::var(n) * Poly::var(n));
    let compiled = compile(&bld.finish(b.finish(vec![xs])), &Options::default()).expect("compile");
    let kernels = KernelRegistry::new();
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let run = |n| {
        let inputs = [InputValue::I64(n)];
        let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &inputs, Mode::Memory);
        server.execute("a", req).map(|(out, _)| out)
    };
    for n in [1i64 << 32, 3_037_000_500] {
        let err = run(n).expect_err("n*n has no i64");
        assert!(
            matches!(&err, ServerError::Execution(msg) if msg.contains("overflows")),
            "{n}: {err}"
        );
        assert_eq!(server.arena_stats().live_bytes, 0, "{n}: nothing charged");
    }
    assert_eq!(
        run(3).expect("the tenant's next request"),
        [OutputValue::ArrayI64((0..9).collect())]
    );
    assert_eq!(server.tenant_stats("a").expect("tenant a").runs, 1);
    assert_eq!(server.global_stats().runs, 1);
}

/// A `row_ptr` arriving as a request input whose segments run past the
/// products array panicked inside the `spmv_row_sum` kernel with the
/// tenant's mutex held, and every later request of the tenant failed on
/// the poisoned mutex. The panic — on whichever participant runs row 0,
/// when the row map dispatches — is that request's typed error, and the
/// tenant serves its next request.
fn kernel_panic_is_a_typed_error_and_the_tenant_lives_on(rows: usize, threads: usize) {
    let case = spmv_case("t", rows, rows, 2, 1);
    let compiled = case.compile(true);
    let server = Server::new(ServerConfig {
        threads,
        ..ServerConfig::default()
    });
    let mut hostile = case.inputs.clone();
    hostile[5] = InputValue::ArrayI64(
        std::iter::once(0)
            .chain(std::iter::repeat_n(1_000_000, rows))
            .collect(),
    );
    let req = ExecRequest::from_compiled(&compiled, &case.kernels, &[], &hostile, Mode::Memory);
    let err = server
        .execute("t", req)
        .expect_err("row 0 reads past the products");
    assert!(
        matches!(&err, ServerError::Execution(msg) if msg.contains("out of bounds")),
        "{err}"
    );

    let req = ExecRequest::from_compiled(&compiled, &case.kernels, &[], &case.inputs, Mode::Memory);
    let (out, stats) = server.execute("t", req).expect("the tenant's next request");
    let [InputValue::ArrayF32(vals), InputValue::ArrayI64(col_idx), InputValue::ArrayI64(row_ptr), InputValue::ArrayF32(x)] =
        &case.inputs[3..]
    else {
        panic!("spmv takes vals, col_idx, row_ptr, x");
    };
    let expect = spmv_reference(rows, vals, col_idx, row_ptr, x);
    assert_eq!(out, vec![OutputValue::ArrayF32(expect)]);
    assert_eq!(stats.pool_dispatches > 0, threads > 1, "{stats:?}");
    assert_eq!(server.tenant_stats("t").expect("tenant t").runs, 1);
}

#[test]
fn kernel_panic_is_a_typed_error_and_the_tenant_lives_on_inline() {
    kernel_panic_is_a_typed_error_and_the_tenant_lives_on(4, 1);
}

#[test]
fn kernel_panic_is_a_typed_error_and_the_tenant_lives_on_dispatched() {
    kernel_panic_is_a_typed_error_and_the_tenant_lives_on(256, 2);
}

/// A request for a scalar statement with no pattern to bind — lowering
/// panicked on it after the plan cache had marked its key as building,
/// so every identical request from any tenant then waited for that build
/// forever, holding an admission permit. The panic is the build's
/// failure: each request gets a typed error and no permit stays held.
#[test]
fn lowering_panic_is_a_typed_error_and_wedges_no_cache_slot() {
    fn unbound_scalar(server: &Server, tenant: &str) -> Result<(), ServerError> {
        let program = Program {
            name: "unbound".into(),
            params: vec![],
            body: Block {
                stms: vec![Stm {
                    pat: vec![],
                    exp: Exp::Scalar(ScalarExp::i64(1)),
                }],
                result: vec![],
            },
            pipeline_fingerprint: 0,
        };
        let kernels = KernelRegistry::new();
        let req = ExecRequest {
            program: &program,
            kernels: &kernels,
            checks: &[],
            merges: &[],
            par: &[],
            inputs: &[],
            mode: Mode::Memory,
        };
        server.execute(tenant, req).map(|_| ())
    }
    let server = Arc::new(Server::default());
    let first = unbound_scalar(&server, "a");
    assert!(
        matches!(&first, Err(ServerError::Prepare(msg)) if msg.contains("lowering panicked")),
        "{first:?}"
    );
    let (tx, rx) = mpsc::channel();
    let other = Arc::clone(&server);
    // Not joined: a wedged build must fail this test, not hang it.
    std::thread::spawn(move || tx.send(unbound_scalar(&other, "b")));
    let second = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("an identical request must not wait for the failed build");
    assert!(
        matches!(&second, Err(ServerError::Prepare(_))),
        "{second:?}"
    );
    assert_eq!(server.load(), (0, 0), "no permit stays held");
}

/// A server tenant is one store under the shared plan cache, and it runs
/// many programs interleaved. Input upload and every other allocation
/// draw from that store's released blocks, so once the first round of
/// programs has sized it, 100 more warm runs add no block.
#[test]
fn warm_requests_leave_a_tenant_store_bounded() {
    let cases: Vec<_> = ["nw", "lud", "hotspot", "histogram", "spmv"]
        .iter()
        .map(|b| {
            let case = table_cases(b, true).expect("known benchmark").remove(0);
            let compiled = case.compile(true);
            (case, compiled)
        })
        .collect();
    let cache = PlanCache::new(1);
    let mut store = MemStore::new();
    let mut first = Vec::new();
    let mut settled = 0;
    for round in 0..21 {
        for (k, (case, c)) in cases.iter().enumerate() {
            let r = &c.report;
            let (plan, _) = cache
                .prepare_full(&c.program, &case.kernels, &[], &r.merges, &r.par_safety)
                .expect("lower");
            let (out, _) = execute_plan(
                &mut store,
                &plan,
                &case.inputs,
                &case.kernels,
                Mode::Memory,
                1,
            )
            .unwrap_or_else(|e| panic!("{} round {round}: {e}", case.name));
            if round == 0 {
                first.push(out);
            } else {
                assert_eq!(out, first[k], "{} round {round}", case.name);
            }
        }
        if round == 0 {
            settled = store.num_blocks();
        }
    }
    assert_eq!(
        store.num_blocks(),
        settled,
        "the store grew over 100 warm runs of {} interleaved programs",
        cases.len()
    );
}

/// Admission control under a held execution slot: with one permit and a
/// one-deep queue, the second request queues, the third is rejected with
/// a typed error naming the load, and the metrics record all of it.
#[test]
fn admission_queues_then_rejects_under_load() {
    let mut kernels = KernelRegistry::new();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let g = Arc::clone(&gate);
    kernels.register("block_until_released", move |ctx| {
        let (lock, cv) = &*g;
        let mut released = lock.lock().unwrap();
        while !*released {
            released = cv.wait(released).unwrap();
        }
        let out = ctx.rows_mut::<f32>().expect("rows are dense f32");
        out.fill(1.0);
    });
    let bld = Builder::new("blocker");
    let mut b = bld.block();
    let xs = b.map_kernel(
        "xs",
        "block_until_released",
        c(2),
        vec![],
        ElemType::F32,
        vec![],
        vec![],
    );
    let prog = bld.finish(b.finish(vec![xs]));
    let compiled = compile(&prog, &Options::default()).expect("compile blocker");
    let server = Server::new(ServerConfig {
        max_in_flight: 1,
        queue_depth: 1,
        threads: 1,
        ..ServerConfig::default()
    });
    let req = ExecRequest::from_compiled(&compiled, &kernels, &[], &[], Mode::Memory);

    std::thread::scope(|scope| {
        let t1 = scope.spawn(|| server.execute("t1", req).expect("first request runs"));
        // Wait until the first request holds the only permit…
        while server.load().0 < 1 {
            std::thread::yield_now();
        }
        let t2 = scope.spawn(|| server.execute("t2", req).expect("queued request runs"));
        // …and the second is parked in the overflow queue.
        while server.load().1 < 1 {
            std::thread::yield_now();
        }
        // The third finds slot and queue full: typed rejection.
        match server.execute("t3", req) {
            Err(ServerError::Overloaded { in_flight, queued }) => {
                assert_eq!((in_flight, queued), (1, 1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Release the kernel; both held requests complete.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let (out1, _) = t1.join().expect("t1 panicked");
        let (out2, _) = t2.join().expect("t2 panicked");
        assert_eq!(out1, vec![OutputValue::ArrayF32(vec![1.0, 1.0])]);
        assert_eq!(out1, out2);
    });

    let m = server.admission_metrics();
    assert_eq!(m.admitted, 2, "{m:?}");
    assert_eq!(m.rejected, 1, "{m:?}");
    assert_eq!(m.queued, 1, "{m:?}");
    assert_eq!(m.peak_in_flight, 1, "{m:?}");
    assert_eq!(m.peak_queue_depth, 1, "{m:?}");
    assert!(m.total_queue_wait > Duration::ZERO, "{m:?}");
    assert!(m.avg_queue_wait() > Duration::ZERO, "{m:?}");
    assert_eq!(server.load(), (0, 0), "permits all returned");
}

/// Four tenants run four *different* real workloads through one server
/// concurrently, twice each: every output matches the workload's
/// reference implementation, the shared cache lowers one plan per
/// program, and the per-tenant aggregates sum to the global view.
#[test]
fn four_tenants_run_distinct_workloads_concurrently() {
    let benchmarks = ["nw", "hotspot", "lud", "nn"];
    let prepared: Vec<_> = benchmarks
        .iter()
        .map(|b| {
            let mut cases = table_cases(b, true).expect("known benchmark");
            let case = cases.remove(0);
            let compiled = case.compile(true);
            let (_, expect) = (case.reference)(&case.inputs);
            (case, compiled, expect)
        })
        .collect();
    let server = Server::new(ServerConfig {
        max_in_flight: 4,
        threads: 2,
        ..ServerConfig::default()
    });
    std::thread::scope(|scope| {
        for (i, (case, compiled, expect)) in prepared.iter().enumerate() {
            let server = &server;
            // Only the Sync parts of the case cross the thread boundary.
            let kernels = &case.kernels;
            let inputs = &case.inputs;
            let (name, tol) = (&case.name, case.tol);
            scope.spawn(move || {
                let tenant = format!("tenant-{i}");
                let req = ExecRequest::from_compiled(compiled, kernels, &[], inputs, Mode::Memory);
                for run in 0..2 {
                    let (out, _) = server
                        .execute(&tenant, req)
                        .unwrap_or_else(|e| panic!("{name} run {run}: {e}"));
                    assert_eq!(out.len(), expect.len(), "{name}: arity");
                    for (k, (e, o)) in expect.iter().zip(&out).enumerate() {
                        assert!(
                            e.approx_eq(o, tol),
                            "{name} run {run}: output {k} diverged from the reference"
                        );
                    }
                }
            });
        }
    });
    let plan = server.plan_stats();
    assert_eq!(plan.builds, 4, "one lowering per distinct program");
    assert_eq!(plan.cache_hits, 4, "each tenant's second run hits");
    let global = server.global_stats();
    assert_eq!(global.runs, 8);
    let names = server.tenant_names();
    assert_eq!(names.len(), 4);
    let per_tenant: u64 = names
        .iter()
        .map(|n| server.tenant_stats(n).expect("ran").runs)
        .sum();
    assert_eq!(per_tenant, global.runs, "tenant aggregates sum to global");
    // The fleet meter's high-water sees every tenant's live bytes at once;
    // the per-tenant max (what `Stats::merge` reports) is only a lower
    // bound on it.
    let fleet = server.arena_stats();
    assert!(
        fleet.peak_bytes_live >= global.stats.peak_bytes_live,
        "fleet high-water {} below the per-tenant max {}",
        fleet.peak_bytes_live,
        global.stats.peak_bytes_live
    );
    assert!(fleet.peak_bytes_live > 0);
    assert_eq!(
        global.stats.kernel_launches,
        names
            .iter()
            .map(|n| server.tenant_stats(n).expect("ran").stats.kernel_launches)
            .sum::<u64>()
    );
}
