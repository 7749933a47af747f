#!/usr/bin/env sh
# Tier-1 verification gate, runnable on an air-gapped machine.
#
# The workspace has no external dependencies, so everything below works
# with an empty cargo registry (--offline). Run from the repo root:
#
#   scripts/verify.sh
#
# Each tier prints its wall time; the last line prints the gate's.
set -eu

cd "$(dirname "$0")/.."

gate_start=$(date +%s)

# tier <title> <command...>: run one tier, print how long it took.
tier() {
    title=$1
    shift
    echo "== $title =="
    tier_start=$(date +%s)
    "$@"
    echo "-- $title: $(($(date +%s) - tier_start)) s"
}

tier "format (rustfmt, check only)" cargo fmt --check

tier "build (release, offline)" cargo build --release --offline --workspace

tier "lint (clippy, warnings are errors)" \
    cargo clippy --offline --all-targets -- -D warnings

# The whole suite at the default pool width, with parallel dispatch
# disabled (1) and with maps oversubscribed onto 8 workers: proven-parallel
# maps must be bit-identical either way. This covers the fuzz smoke, the
# committed corpus (every seed in every mode, every regression still
# rejected for its recorded reason), the merge workloads and the
# multi-tenant server tests — none is re-run on its own.
tier "tests (offline, default threads)" \
    cargo test --release --offline --workspace -q
tier "tests (ARRAYMEM_THREADS=1)" \
    env ARRAYMEM_THREADS=1 cargo test --release --offline --workspace -q
tier "tests (ARRAYMEM_THREADS=8)" \
    env ARRAYMEM_THREADS=8 cargo test --release --offline --workspace -q

tier "smoke tables (tiny datasets, one measured run each)" \
    cargo run --release --offline -p arraymem-bench --bin tables -- --smoke

# Exit 1 on any sanitizer finding: uninitialized read of a recycled
# block, use-after-release, map race, or a short-circuit whose concrete
# footprints overlap.
tier "checked tier (shadow-memory sanitizer over all workloads)" \
    cargo run --release --offline -p arraymem-bench --bin tables -- --smoke --check

# ARRAYMEM_VERIFY_IR re-runs the full structural+memory validator after
# every pipeline stage even in this release build; a violation panics
# naming the offending pass.
tier "per-pass IR snapshots (NW, interleaved IR validation forced on)" \
    env ARRAYMEM_VERIFY_IR=1 cargo test --release --offline -p arraymem-bench --test pass_snapshots -q

# The repo benchmark is a package of its own that calls the crates'
# public API from outside; building it untouched and running its smoke
# catches API drift before the benchmark driver does. Its unit tests
# (medians, compare verdicts, JSON) are in no workspace, so only this
# tier runs them.
tier "benchmark (builds against the public API, smoke run)" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
tier "benchmark (its own unit tests)" \
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

# ROADMAP item 3's line target, as a number in every PR: lines of each
# crate's src/*.rs up to its first #[cfg(test)], tests.rs excluded.
# crates/exec/src's bound, which every tier that counts exec reads.
EXEC_LINES=6150
crate_lines() {
    n=0
    for f in crates/$1/src/*.rs; do
        [ "$f" = "crates/$1/src/tests.rs" ] && continue
        n=$((n + $(awk '/#\[cfg\(test\)\]/{exit}{n++}END{print n+0}' "$f")))
    done
    echo "$n"
}
src_lines() {
    for crate in lmad ir exec core bench server; do
        echo "crates/$crate/src: $(crate_lines "$crate")"
    done
}
tier "non-test source lines (lmad, ir, exec, core, bench, server)" src_lines

# The run time is integers: the executor computes with the LMAD family's
# `i64` instantiation and never builds a polynomial.
tier "vm.rs names no Poly and no arraymem_symbolic" \
    sh -c '! grep -n "Poly\|arraymem_symbolic::" crates/exec/src/vm.rs'

# Registers are words: a warm run's heap allocations do not grow with the
# number of elements or loop iterations (counted exactly by a one-test
# binary with a counting allocator), the VM never deep-copies an array
# value to read an operand, and the sanitizer switch is not tested per
# gather/scatter lane — the lane loop is picked once per instruction.
element_paths() {
    cargo test --release --offline -p arraymem-bench --test alloc_free -q
    ! grep -n 'as_array().clone()\|shadow_enabled()' crates/exec/src/vm.rs
}
tier "element paths stay allocation-free and sanitizer-free unless checked" element_paths

# Element loops run in strips, and a strip is the evaluator, not a second
# semantics: the differential tests (every operator x type pair, seeded
# bodies, layouts, widths around the strip length, error precedence, the
# lanes' validate-then-move split) and the width check; a warm run still
# allocates per instruction (200 strips per map at the third size); and
# the arithmetic exists once — scalar and strip code call the same
# per-type functions, so checked integer arithmetic occurs on no more
# lines of non-test crates/exec/src than before there were strips.
strips() {
    cargo test --release --offline -p arraymem-exec -q -- strip map_wider
    cargo test --release --offline -p arraymem-bench --test alloc_free -q
    n=0
    for f in crates/exec/src/*.rs; do
        [ "$f" = "crates/exec/src/tests.rs" ] && continue
        n=$((n + $(awk '/#\[cfg\(test\)\]/{exit}{print}' "$f" |
            grep -c 'checked_add\|checked_mul\|checked_div_euclid\|checked_neg' || true)))
    done
    echo "lines of checked integer arithmetic in crates/exec/src: $n (limit 7)"
    [ "$n" -le 7 ]
}
tier "strips agree with the evaluator, allocate nothing, add no arithmetic" strips

# Scalar code has one form: lowering emits every expression once, as
# straight-line code over numbered values, and the evaluator, the strips
# and the plan printer all read that code; and one typer, the strips',
# which run lambda maps and typed loops alike. The accumulator/stack code,
# the lane code replayed from it and the loops' second typer stay gone,
# and exec stays within the lines their deletion bought.
one_form() {
    ! awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }' \
        $(ls crates/exec/src/*.rs | grep -v '/tests\.rs$') |
        grep 'lower_strip\|StripCode\|LaneOp\|LaneArg\|Arg::Pop\|Op::Push\|LoopCode\|enum Step'
    n=$(crate_lines exec)
    echo "non-test lines in crates/exec/src: $n (limit $EXEC_LINES)"
    [ "$n" -le "$EXEC_LINES" ]
}
tier "scalar code has one form (no second lowering, exec within its lines)" one_form

# Merging is liveness: phase 1 of the merge pass colors live intervals
# and proves nothing about footprints, and the executor re-proves nothing
# about a merge (the differential legs guard it). The footprint tier, its
# interference matrix and its run-time re-proof stay gone.
merge_is_liveness() {
    ! awk '/#\[cfg\(test\)\]/{exit}{print FILENAME":"FNR": "$0}' crates/core/src/merge.rs |
        grep 'non_overlap\|Lmad\|fits\[' &&
        ! grep -rn 'verify_merges\|LoweredMergeCheck\|merges_verified\|MergeOverlap' crates/
}
tier "merge is liveness (no footprint tier, no run-time merge re-proof)" merge_is_liveness

# Block lifetimes are one analysis: which blocks a statement touches and
# which mem variables can name one runtime block are defined once, in
# crates/core/src/liveness.rs, and the release plan, the merge pass and
# cleanup all read it — no second liveness over array alias classes. That
# liveness trusts the annotations, so the suites that replay the corpus
# and the merge workloads run with the validator (and its loop-memory
# rule) after every stage even in this release build.
one_liveness() {
    nontest() {
        awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }' \
            $(ls "$@" | grep -v '/tests\.rs$')
    }
    for def in 'struct MemAliases' 'fn touched_blocks'; do
        n=$(nontest crates/core/src/*.rs | grep -c "$def\b" || true)
        echo "definitions of '$def' in crates/core/src: $n (limit 1)"
        [ "$n" -le 1 ] || return 1
    done
    if grep -n 'arraymem_ir::alias' crates/core/src/release.rs crates/core/src/cleanup.rs ||
        nontest crates/ir/src/*.rs | grep 'block_last_uses'; then
        return 1
    fi
    env ARRAYMEM_VERIFY_IR=1 cargo test --release --offline -p arraymem-bench -q \
        --test differential_fuzz --test merge_workloads || return 1
    n=$(($(crate_lines core) + $(crate_lines ir)))
    echo "non-test lines in crates/core/src + crates/ir/src: $n (limit 6139)"
    [ "$n" -le 6139 ]
}
tier "block lifetimes are one analysis (one liveness, truthful loop memory)" one_liveness

# Parallel maps run on scoped threads: a dispatch spawns its workers
# inside `std::thread::scope` and joins them before it returns, so the
# pool parks no threads, erases no closure's lifetime and shares no lock
# between dispatches. A panic — in a map, a kernel or a plan-cache build —
# is its request's error: it wedges no tenant lock and no cache key. The
# pool tests cover coverage, stealing, payloads and overlapping
# dispatches; the server tests a panicking kernel (inline and dispatched)
# and a panicking lowering.
scoped_pool() {
    if awk '/#\[cfg\(test\)\]/{exit}{print FILENAME":"FNR": "$0}' crates/exec/src/pool.rs |
        grep 'unsafe\|transmute\|Condvar\|Box::leak\|WorkerPool'; then
        return 1
    fi
    n=$(awk '/#\[cfg\(test\)\]/{exit}{n++}END{print n+0}' crates/exec/src/pool.rs)
    echo "non-test lines in crates/exec/src/pool.rs: $n (limit 194)"
    [ "$n" -le 194 ] || return 1
    n=$(crate_lines exec)
    echo "non-test lines in crates/exec/src: $n (limit $EXEC_LINES)"
    [ "$n" -le "$EXEC_LINES" ] || return 1
    cargo test --release --offline -p arraymem-exec -q -- pool:: || return 1
    cargo test --release --offline -p arraymem-bench --test server -q -- kernel_panic lowering_panic
}
tier "parallel maps run on scoped threads; a panic wedges nothing" scoped_pool

# Which constructs nest a block is `arraymem_ir`'s knowledge
# (`Exp::blocks`, `Block::for_each_stm`): a pass names the lambda body
# only where it means the lambda, never merely to recurse. 18 such
# matches before the shared walk, 2 after it.
nest_matches() {
    n=0
    for f in crates/core/src/*.rs; do
        [ "$f" = "crates/core/src/tests.rs" ] && continue
        n=$((n + $(grep -c 'MapBody::Lambda' "$f" || true)))
    done
    echo "MapBody::Lambda in crates/core/src: $n (limit 5)"
    [ "$n" -le 5 ]
}
tier "core recurses through the IR walk, not through its own nest matches" nest_matches

# Scalar loops run typed: in `Memory` a loop whose body is scalar code,
# point reads and point updates by a scalar runs in the strips at width 1,
# one iteration at a time, and the instruction loop (`Pure`, `Checked`)
# stays its oracle. The small-scope differential runs every loop shape in
# all three modes (bit-identical outputs, byte-identical errors, typed or
# stepped as expected); the workloads' stepped-iteration counts, the
# source language's loops, the scalar semantics' one-trip loop and the
# allocation-free element paths follow.
scalar_loops() {
    cargo test --release --offline -p arraymem-bench -q \
        --test scalar_loops --test scalar_semantics --test alloc_free || return 1
    cargo test --release --offline -p arraymem-bench -q --test optimization_reports \
        -- scalar_loops_run_typed || return 1
    cargo test --release --offline -p arraymem-lang -q -- loops_and_scalar_updates || return 1
    n=$(crate_lines exec)
    echo "non-test lines in crates/exec/src: $n (limit $EXEC_LINES)"
    [ "$n" -le "$EXEC_LINES" ]
}
tier "scalar loops run typed; the instruction loop stays their oracle" scalar_loops

# A tenant's memory stays in its store: each store recycles only its own
# blocks, through its one free list, and tenants share nothing but a
# byte meter. The cross-tenant arena, its donate/adopt path and its
# counters, and the per-color slabs with the plan's color plumbing, stay
# out of every crate's non-test code, and store.rs stays within the lines
# their deletion bought.
own_store() {
    if awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }' \
        $(find crates -name '*.rs' ! -name tests.rs | sort) |
        grep 'SharedArena\|donate_free_blocks\|attach_arena\|arena_blocks_adopted\|fn adopt\|color_slots\|alloc_colored\|release_colored\|begin_colors\|drain_colors\|num_colors'; then
        return 1
    fi
    n=$(awk '/#\[cfg\(test\)\]/{exit}{n++}END{print n+0}' crates/exec/src/store.rs)
    echo "non-test lines in crates/exec/src/store.rs: $n (limit 485)"
    [ "$n" -le 485 ]
}
tier "a tenant's memory stays in its store (no cross-tenant arena, one free list)" own_store

echo "== verify: OK ($(($(date +%s) - gate_start)) s) =="
