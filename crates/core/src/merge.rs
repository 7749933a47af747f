//! Memory block merging: interval coloring of the top-level allocations.
//!
//! Short-circuiting removes copies by constructing an array *inside* its
//! destination's memory; this pass removes whole allocations by letting
//! arrays whose blocks are never live together share a block outright —
//! the reuse idea of FORAY-GEN and of redundant-array elimination,
//! applied at the granularity of the IR's `alloc` statements.
//!
//! Two blocks **interfere** when their live ranges — the closed interval
//! of top-level statements touching the block, through any alias — share
//! a statement. The ranges are the middle-end's one block liveness
//! (`liveness`), the same the release plan frees by and
//! `cleanup` prunes by, read off the memory annotations — which
//! `validate_memory` keeps truthful where a loop yields memory. The pass
//! visits the top-level allocations in `(first use, alloc index)` order
//! and gives each the first *color* it does not interfere with. Every earlier member of a color was first used no
//! later than the candidate, so "disjoint from every member" is one
//! comparison: the color's `busy_until` (the latest last use among its
//! members) lies strictly before the candidate's first use. All members
//! of a color share one allocation — the color's representative — so
//! *k* allocations collapse to the number of colors the scan needs. The
//! representative's allocation may also be **grown** to a later member's
//! provably larger size (when that size is in scope at the
//! representative's `alloc`), so a smaller-first program order does not
//! block sharing.
//!
//! There is one tier of legality and no run-time re-proof of it: a
//! [`MergeRecord::Share`] says which block moved where, nothing more.
//! What guards these merges is differential — the merge-on/off legs of
//! the fuzzer and of `tests/merge_workloads.rs`, and the syntactic
//! live-range re-proof there.
//!
//! **Loop-carried existential memory** gets its own treatment: a
//! top-level loop that ping-pongs its carried block (each iteration
//! allocates a fresh yield block, making the incoming block dead at the
//! yield) is assigned a
//! *color* whose blocks the executor recycles per iteration — a
//! [`MergeRecord::CarriedRelease`] instructs the plan to release the
//! incoming block into the color's slab once its last in-body use has
//! passed, and the yield `alloc` draws from the same slab. Peak usage
//! drops from one block per iteration to the ping-pong pair. Checked mode
//! re-proves the assignment concretely: the released block's shadow cells
//! flip to `Released`, so any read the static last-use analysis missed
//! surfaces as a `UseAfterRelease` diagnostic.
//!
//! Ordering: after `short_circuit` (so rebased webs are seen in their
//! final blocks), before `cleanup` (which deletes the vacated `alloc`s)
//! and `release` (whose plan sees the merged liveness).

use crate::liveness::{block_of, Liveness, ESCAPES};
use crate::remark::MergeReject;
use arraymem_ir::{Block, ElemType, Exp, Program, SliceSpec, Stm, Type, Var};
use arraymem_symbolic::{Env, Poly};
use std::collections::{HashMap, HashSet};

/// Array variables read or written through **runtime indices** — a
/// gather's source, a scatter's destination — at every nesting depth.
/// The blocks backing these arrays have no affine footprint summary (see
/// [`arraymem_lmad::OpaqueIxFn`]); an interference reject of one is
/// labelled [`MergeReject::RuntimeIndexed`].
fn runtime_indexed_arrays(block: &Block) -> Vec<Var> {
    let mut out = Vec::new();
    block.for_each_stm(&mut |stm| match &stm.exp {
        Exp::Gather { src, .. } => out.push(*src),
        Exp::Update {
            dst,
            slice: SliceSpec::Scatter(_),
            ..
        } => out.push(*dst),
        _ => {}
    });
    out
}

/// One coloring decision, in the transport form the executor consumes.
#[derive(Clone, Debug)]
pub enum MergeRecord {
    /// Compile-time sharing: `victim`'s bindings were rewritten onto
    /// `host`, and its `alloc` went dead. Their live ranges are disjoint,
    /// so the executor owes the merge nothing.
    Share {
        /// The block that survives and absorbs the victim's tenants.
        host: Var,
        /// The block whose bindings were rewritten onto `host`.
        victim: Var,
    },
    /// Runtime recycling of loop-carried ping-pong memory: inside the
    /// top-level loop carrying mem parameter `loop_mem`, the incoming
    /// block is dead once the statement binding `after_stm` has executed
    /// (its last in-body use, and the yield block `yield_mem` is already
    /// allocated so the executor's identity guard has both ends). The
    /// plan releases it into color `color`'s slab there, and `yield_mem`'s
    /// `alloc` draws from the same slab — a two-block ping-pong instead of
    /// one live block per iteration. Checked mode re-proves the
    /// assignment: the released block's shadow flips to `Released`, so a
    /// read past the analyzed last use raises `UseAfterRelease`.
    CarriedRelease {
        /// The loop's mem merge parameter (the per-iteration incoming
        /// block).
        loop_mem: Var,
        /// The body-local `alloc` yielded as the iteration's carried
        /// block.
        yield_mem: Var,
        /// First pattern variable of the body statement after which the
        /// incoming block may be released.
        after_stm: Var,
        /// The runtime slab this loop's blocks cycle through.
        color: u32,
    },
}

/// One merge decision, for remarks and tests.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    pub host: Var,
    pub victim: Var,
    /// Pushed through a failing interference check by the
    /// `Sabotage::Merge` mutation hook.
    pub forced: bool,
}

/// A host allocation grown to a later color member's provably larger
/// size (the member's size was in scope at the host's `alloc`).
#[derive(Clone, Debug)]
pub struct HostGrowth {
    pub host: Var,
    /// The member whose size the host grew to.
    pub member: Var,
    pub from: Poly,
    pub to: Poly,
}

/// Everything the merge pass decided, for the pipeline to turn into
/// remarks and for the executor to act on.
#[derive(Clone, Debug, Default)]
pub struct MergeReport {
    pub merged: Vec<MergeOutcome>,
    /// Host allocations grown to a later member's size.
    pub grown: Vec<HostGrowth>,
    /// Blocks that kept their own allocation, with the reason the closed
    /// taxonomy assigns (precedence: interference over size over element
    /// type — the reason closest to an actual merge wins).
    pub rejected: Vec<(Var, MergeReject)>,
    /// Executor-facing records, one per merge or carried release.
    pub records: Vec<MergeRecord>,
}

/// One candidate allocation, in linear-scan order.
struct Cand {
    var: Var,
    elem: ElemType,
    size: Poly,
    /// Top-level index of the `alloc` statement: a color's representative
    /// must be allocated before any merged member first writes it.
    alloc_idx: usize,
    /// The block's live range: the first and last top-level statements
    /// touching it (`last` is [`ESCAPES`] when it backs a program
    /// result).
    first: usize,
    last: usize,
}

/// One color of the scan: the representative allocation that survives,
/// and until when its members keep it busy.
struct Color {
    rep: Var,
    elem: ElemType,
    /// Current size of the representative's allocation — grows when a
    /// provably larger member joins.
    size: Poly,
    alloc_idx: usize,
    /// The latest last use among the members. Candidates arrive in
    /// first-use order, so one starting after this is disjoint from all
    /// of them.
    busy_until: usize,
}

/// Run block merging over a memory-annotated program: interval coloring
/// of the top-level allocations (with host growth), then carried-release
/// coloring of loop ping-pong memory.
pub fn merge_blocks(prog: &mut Program, env: &Env) -> MergeReport {
    merge_blocks_with(prog, env, false)
}

/// [`merge_blocks`]; `force_unsafe` is the `Sabotage::Merge` mutation
/// hook: an interference-rejected candidate is pushed into the first
/// color it interferes with anyway — a real miscompile, for the
/// differential oracle and the minimizer to find.
pub(crate) fn merge_blocks_with(prog: &mut Program, env: &Env, force_unsafe: bool) -> MergeReport {
    let mut report = MergeReport::default();
    color_toplevel(prog, env, force_unsafe, &mut report);
    schedule_carried_releases(prog, &mut report);
    report
}

/// Phase 1: interval coloring of the top-level allocations.
fn color_toplevel(prog: &mut Program, env: &Env, force_unsafe: bool, report: &mut MergeReport) {
    // Candidate allocations: top-level `alloc` statements, in order.
    let allocs: Vec<(usize, Var, ElemType, Poly)> = prog
        .body
        .stms
        .iter()
        .enumerate()
        .filter_map(|(i, stm)| match &stm.exp {
            Exp::Alloc { elem, size } => Some((i, stm.pat[0].var, *elem, size.clone())),
            _ => None,
        })
        .collect();
    if allocs.len() < 2 {
        return;
    }

    // A block *escapes* only when its variable is itself a program
    // result: the program hands the raw block to the caller, so renaming
    // it would change the interface. Loop-carried blocks are handled by
    // the alias classes below instead of escaping wholesale.
    let escaping: HashSet<Var> = prog.body.result.iter().copied().collect();

    // Live interval of each candidate block, at top-level statement
    // granularity (see `liveness`).
    let lv = Liveness::of(&prog.body);
    let ranges = lv.live_ranges(&prog.body);

    // Blocks accessed through runtime indices: when overlapping live
    // ranges sink one, the reject is reported as `RuntimeIndexed` rather
    // than a generic interference.
    let runtime_indexed: HashSet<Var> = runtime_indexed_arrays(&prog.body)
        .into_iter()
        .map(|a| lv.class(lv.home(a)))
        .collect();

    // Where each top-level scalar is bound, for the growth legality check:
    // a host may only grow to a size whose every variable is in scope at
    // the host's `alloc` (a program parameter, or bound strictly before).
    let param_vars: HashSet<Var> = prog.params.iter().map(|(v, _)| *v).collect();
    let mut bound_at: HashMap<Var, usize> = HashMap::new();
    for (i, stm) in prog.body.stms.iter().enumerate() {
        for pe in &stm.pat {
            bound_at.entry(pe.var).or_insert(i);
        }
    }
    let growable = |size: &Poly, host_alloc_idx: usize| -> bool {
        size.vars()
            .iter()
            .all(|v| param_vars.contains(v) || bound_at.get(v).is_some_and(|&i| i < host_alloc_idx))
    };

    // Linear-scan order: first use (allocation statements are hoisted, so
    // their textual order says nothing about liveness; first-use order
    // lets each block try the colors whose tenants came before it).
    // Escaping blocks take no part in the scan; neither do dead ones,
    // which cleanup removes.
    let mut ordered = allocs;
    let first = |m: &Var| ranges.get(m).map_or(ESCAPES, |r| r.0);
    ordered.sort_by_key(|(idx, m, _, _)| (first(m), *idx));
    let mut cands: Vec<Cand> = Vec::with_capacity(ordered.len());
    for (alloc_idx, m, elem, size) in ordered {
        if escaping.contains(&m) {
            report.rejected.push((m, MergeReject::Escapes));
        } else if let Some(&(first, last)) = ranges.get(&m).filter(|r| r.0 != ESCAPES) {
            cands.push(Cand {
                var: m,
                elem,
                size,
                alloc_idx,
                first,
                last,
            });
        }
    }

    // Assign each candidate the first color it does not interfere with.
    let mut colors: Vec<Color> = Vec::new();
    let mut rename: HashMap<Var, Var> = HashMap::new();
    for cand in cands {
        let mut saw_interference = false;
        let mut saw_size_fail = false;
        // (color index, provably larger member size forcing host growth,
        // pushed past interference by the mutation hook)
        let mut placed: Option<(usize, Option<Poly>, bool)> = None;
        for (ci, color) in colors.iter().enumerate() {
            if color.elem != cand.elem {
                continue;
            }
            // The color's `alloc` must execute before the member's tenants
            // first write into it.
            if color.alloc_idx > cand.first {
                saw_interference = true;
                continue;
            }
            // The member's footprints must fit inside the color's block —
            // or the block grows to the member's provably larger size
            // when that size is in scope at the representative's `alloc`.
            let grow = if env.prove_le(&cand.size, &color.size) {
                None
            } else if env.prove_le(&color.size, &cand.size) && growable(&cand.size, color.alloc_idx)
            {
                Some(cand.size.clone())
            } else {
                saw_size_fail = true;
                continue;
            };
            if color.busy_until < cand.first {
                placed = Some((ci, grow, false));
                break;
            }
            saw_interference = true;
            // Forcing injects an interference fault only: the member must
            // fit the block as it is.
            if force_unsafe && placed.is_none() && grow.is_none() {
                placed = Some((ci, None, true));
            }
        }
        if let Some((ci, grow, forced)) = placed {
            let color = &mut colors[ci];
            if let Some(to) = grow {
                report.grown.push(HostGrowth {
                    host: color.rep,
                    member: cand.var,
                    from: std::mem::replace(&mut color.size, to.clone()),
                    to,
                });
            }
            report.merged.push(MergeOutcome {
                host: color.rep,
                victim: cand.var,
                forced,
            });
            report.records.push(MergeRecord::Share {
                host: color.rep,
                victim: cand.var,
            });
            rename.insert(cand.var, color.rep);
            color.busy_until = color.busy_until.max(cand.last);
            continue;
        }
        if !colors.is_empty() {
            let why = if saw_interference && runtime_indexed.contains(&lv.class(cand.var)) {
                MergeReject::RuntimeIndexed
            } else if saw_interference {
                MergeReject::Interference
            } else if saw_size_fail {
                MergeReject::SizeNotProvable
            } else {
                MergeReject::ElemMismatch
            };
            report.rejected.push((cand.var, why));
        }
        colors.push(Color {
            rep: cand.var,
            elem: cand.elem,
            size: cand.size,
            alloc_idx: cand.alloc_idx,
            busy_until: cand.last,
        });
    }

    // Apply host growths to the IR: the representative's `alloc` takes the
    // color's final (largest) size.
    for color in colors {
        if let Exp::Alloc { size, .. } = &mut prog.body.stms[color.alloc_idx].exp {
            *size = color.size;
        }
    }

    if !rename.is_empty() {
        rewrite_blocks(prog, &rename);
    }
}

/// Phase 2: color loop-carried ping-pong memory. For
/// every top-level loop mem parameter whose body yields a fresh in-body
/// allocation, the incoming block is dead once its last in-body use has
/// passed — provided nothing outside the iteration can still reach the
/// blocks the parameter cycles through. Each qualifying parameter gets a
/// [`MergeRecord::CarriedRelease`] with its own runtime color.
fn schedule_carried_releases(prog: &Program, report: &mut MergeReport) {
    let lv = Liveness::of(&prog.body);
    let touches = |s: &Stm, m: Var| lv.touched_blocks(s).contains(&m);
    let mut next_color: u32 = 0;
    for (loop_idx, stm) in prog.body.stms.iter().enumerate() {
        let Exp::Loop {
            params,
            inits,
            body,
            ..
        } = &stm.exp
        else {
            continue;
        };
        for (k, pp) in params.iter().enumerate() {
            if !matches!(pp.ty, Type::Mem) {
                continue;
            }
            let m = pp.var;
            let Some(&y) = body.result.get(k) else {
                continue;
            };
            if y == m {
                continue; // the block survives the iteration unchanged
            }
            // The yield block must be a fresh allocation of the body
            // itself — the ping-pong shape. Nested existential results
            // keep the conservative treatment.
            let Some(a_idx) = body.stms.iter().position(|s| {
                matches!(s.exp, Exp::Alloc { .. }) && s.pat.first().map(|pe| pe.var) == Some(y)
            }) else {
                continue;
            };
            let Some(&init_m) = inits.get(k) else {
                continue;
            };

            // Arrays living in the carried block inside one iteration: the
            // loop's own array parameters annotated `@ m`, plus any body
            // binding into `m`.
            let tenants = body.stms.iter().flat_map(|s| &s.pat).chain(params);
            let in_m = tenants.filter(|pe| block_of(pe) == Some(m));
            let carried: HashSet<Var> = in_m.map(|pe| pe.var).collect();
            // The carried block must be dead at the yield: no other body
            // result may still live in it.
            if body
                .result
                .iter()
                .enumerate()
                .any(|(k2, r)| k2 != k && (carried.contains(r) || *r == m))
            {
                continue;
            }
            // Iteration 0 frees the *initial* block, so nothing bound in
            // it may outlive the loop's first iteration: no parameter may
            // be annotated into it, and no body statement may touch it (a
            // binding into it, or a read of an outer array living there)…
            if params.iter().any(|pp| block_of(pp) == Some(init_m))
                || body.stms.iter().any(|s| touches(s, init_m))
            {
                continue;
            }
            // …and nothing after the loop may reach it.
            let later = &prog.body.stms[loop_idx + 1..];
            if later.iter().any(|s| touches(s, init_m))
                || prog.body.result.iter().any(|r| lv.home(*r) == init_m)
            {
                continue;
            }

            // Release point: after the last body statement touching the
            // carried block or its arrays — and no earlier than the yield
            // `alloc`, whose block the executor's identity guard reads.
            let last_touch = body.stms.iter().rposition(|s| touches(s, m));
            let release_after = last_touch.map_or(a_idx, |i| i.max(a_idx));
            let Some(anchor) = body.stms[release_after].pat.first().map(|pe| pe.var) else {
                continue;
            };
            report.records.push(MergeRecord::CarriedRelease {
                loop_mem: m,
                yield_mem: y,
                after_stm: anchor,
                color: next_color,
            });
            next_color += 1;
        }
    }
}

/// Rewrite every memory binding whose block was merged away onto its
/// host, at every nesting depth (patterns and loop merge parameters).
fn rewrite_blocks(prog: &mut Program, rename: &HashMap<Var, Var>) {
    let renamed = |v: &mut Var| {
        if let Some(host) = rename.get(v) {
            *v = *host;
        }
    };
    prog.body.for_each_stm_mut(&mut |stm| {
        for mb in stm.bound_mut().filter_map(|pe| pe.mem.as_mut()) {
            renamed(&mut mb.block);
        }
        if let Exp::Loop { inits, .. } = &mut stm.exp {
            inits.iter_mut().for_each(renamed);
        }
        // A vacated block's variable can flow out of a nested block as
        // an existential-memory result; the program-level result never
        // names a victim (such blocks are rejected as `Escapes`).
        for nested in stm.exp.blocks_mut() {
            nested.result.iter_mut().for_each(renamed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remark::MergeReject;
    use crate::{compile, Options};
    use arraymem_ir::{Builder, MemBinding, PatElem, ScalarExp, Stm};
    use arraymem_lmad::{Dim, IndexFn, Lmad};
    use arraymem_symbolic::sym;

    fn p(v: Var) -> Poly {
        Poly::var(v)
    }

    fn count_allocs(block: &Block) -> usize {
        block
            .stms
            .iter()
            .filter(|s| matches!(s.exp, Exp::Alloc { .. }))
            .count()
    }

    fn share(rec: &MergeRecord) -> (&Var, &Var) {
        match rec {
            MergeRecord::Share { host, victim } => (host, victim),
            other => panic!("expected a Share record, got {other:?}"),
        }
    }

    /// A three-stage chain `a = iota n; b = copy a; c = copy b` gives the
    /// last allocation a live range disjoint from the first's: `c` merges
    /// into `a`'s block.
    #[test]
    fn lifetime_disjoint_chain_merges() {
        let mut bld = Builder::new("chain");
        let n = bld.scalar_param("ch_n", ElemType::I64);
        let mut body = bld.block();
        let a = body.iota("ch_a", p(n));
        let b = body.copy("ch_b", a);
        let c = body.copy("ch_c", b);
        let blk = body.finish(vec![c]);
        let prog = bld.finish(blk);

        let mut env = Env::new();
        env.assume_ge(n, 1);
        // Short-circuiting off, so both copies (and all three blocks)
        // survive to the merge pass.
        let opts = Options {
            merge: true,
            ..Options::default()
        }
        .with_env(env);
        let compiled = compile(&prog, &opts).expect("compile");

        assert_eq!(compiled.report.merges.len(), 1, "exactly one merge");
        let (host, victim) = share(&compiled.report.merges[0]);
        assert_ne!(host, victim);
        // Cleanup collected the vacated alloc: 2 blocks serve 3 arrays.
        assert_eq!(count_allocs(&compiled.program.body), 2);
    }

    /// Hand-built memory-annotated program where the second block's tenant
    /// sits at offset `n` of its `2n` cells and the first's occupies
    /// `[0, n)`: sharing would be sound, but the live ranges overlap and
    /// liveness is all the pass looks at — no `introduce`d program lays
    /// its blocks out like this.
    #[test]
    fn overlapping_live_ranges_never_share() {
        let n = sym("fpm_n");
        let blk_a = sym("fpm_A");
        let blk_b = sym("fpm_B");
        let x = sym("fpm_x");
        let y = sym("fpm_y");
        let sx = sym("fpm_sx");
        let sy = sym("fpm_sy");

        let size = Poly::var(n) * Poly::constant(2);
        let arr_ty = Type::array(ElemType::F32, vec![Poly::var(n)]);
        let lmad_lo = Lmad::new(0, vec![Dim::new(Poly::var(n), 1)]);
        let lmad_hi = Lmad::new(Poly::var(n), vec![Dim::new(Poly::var(n), 1)]);

        let alloc = |blk: Var| Stm {
            pat: vec![PatElem::new(blk, Type::Mem)],
            exp: Exp::Alloc {
                elem: ElemType::F32,
                size: size.clone(),
            },
        };
        let scratch_in = |v: Var, blk: Var, l: Lmad| Stm {
            pat: vec![PatElem {
                var: v,
                ty: arr_ty.clone(),
                mem: Some(MemBinding {
                    block: blk,
                    ixfn: IndexFn::from_lmad(l),
                }),
            }],
            exp: Exp::Scratch {
                elem: ElemType::F32,
                shape: vec![Poly::var(n)],
            },
        };
        let read0 = |s: Var, arr: Var| Stm {
            pat: vec![PatElem::new(s, Type::Scalar(ElemType::F32))],
            exp: Exp::Scalar(ScalarExp::Index(arr, vec![ScalarExp::i64(0)])),
        };

        let mut prog = Program {
            name: "fpmerge".into(),
            params: vec![(n, Type::Scalar(ElemType::I64))],
            pipeline_fingerprint: 0,
            body: Block {
                stms: vec![
                    alloc(blk_a),
                    alloc(blk_b),
                    // x lives in A at [0, n); y in B at [n, 2n). Their
                    // live ranges overlap (both read by the tail).
                    scratch_in(x, blk_a, lmad_lo),
                    scratch_in(y, blk_b, lmad_hi),
                    read0(sx, x),
                    read0(sy, y),
                ],
                result: vec![sx, sy],
            },
        };
        let mut env = Env::new();
        env.assume_ge(n, 1);

        let report = merge_blocks(&mut prog, &env);
        assert!(report.merged.is_empty() && report.records.is_empty());
        assert_eq!(report.rejected, vec![(blk_b, MergeReject::Interference)]);
        // y keeps its own block.
        let y_mb = prog.body.stms[3].pat[0].mem.as_ref().expect("y has mem");
        assert_eq!(y_mb.block, blk_b);
    }

    /// A lone host of a different element type: the only reject reason
    /// left standing is the element mismatch.
    #[test]
    fn elem_mismatch_is_rejected() {
        let mut bld = Builder::new("elems");
        let n = bld.scalar_param("em_n", ElemType::I64);
        let mut body = bld.block();
        let a = body.iota("em_a", p(n)); // i64 block
        let s = body.scalar(
            "em_s",
            ElemType::I64,
            ScalarExp::Index(a, vec![ScalarExp::i64(0)]),
        );
        // f32 block, live only after `a` is dead — lifetimes are fine,
        // the element types are not.
        let w = body.scratch("em_w", ElemType::F32, vec![p(n)]);
        let ws = body.scalar(
            "em_ws",
            ElemType::F32,
            ScalarExp::Index(w, vec![ScalarExp::var(s)]),
        );
        let blk = body.finish(vec![ws]);
        let prog = bld.finish(blk);

        let mut env = Env::new();
        env.assume_ge(n, 1);
        let opts = Options {
            merge: true,
            ..Options::default()
        }
        .with_env(env);
        let compiled = compile(&prog, &opts).expect("compile");

        assert!(compiled.report.merges.is_empty());
        let rejects: Vec<&MergeReject> = compiled
            .compile_report
            .remarks
            .iter()
            .filter_map(|r| match &r.kind {
                crate::remark::RemarkKind::MergeRejected(why) => Some(why),
                _ => None,
            })
            .collect();
        assert!(
            rejects
                .iter()
                .any(|w| matches!(w, MergeReject::ElemMismatch)),
            "expected an ElemMismatch reject, got {rejects:?}"
        );
    }

    /// A small-then-large allocation order does not block sharing: the
    /// host's `alloc` grows to the later member's provably larger size
    /// (which is in scope at the host's `alloc`) and the rewritten IR
    /// carries the grown size.
    #[test]
    fn host_grows_to_larger_member() {
        let mut bld = Builder::new("grow");
        let n = bld.scalar_param("gr_n", ElemType::I64);
        let mut body = bld.block();
        // a: n elements; b: 2n elements, live only after `a` is dead.
        let a = body.iota("gr_a", p(n));
        let s = body.scalar(
            "gr_s",
            ElemType::I64,
            ScalarExp::Index(a, vec![ScalarExp::i64(0)]),
        );
        let b = body.iota("gr_b", p(n) * Poly::constant(2));
        let t = body.scalar(
            "gr_t",
            ElemType::I64,
            ScalarExp::Index(b, vec![ScalarExp::var(s)]),
        );
        let blk = body.finish(vec![t]);
        let prog = bld.finish(blk);

        let mut env = Env::new();
        env.assume_ge(n, 1);

        let opts = Options {
            merge: true,
            ..Options::default()
        }
        .with_env(env);
        let on = compile(&prog, &opts).expect("compile");
        assert_eq!(on.report.merges.len(), 1, "merges via growth");
        assert_eq!(count_allocs(&on.program.body), 1, "one block serves both");
        let grown = on
            .compile_report
            .remarks
            .iter()
            .any(|r| matches!(r.kind, crate::remark::RemarkKind::HostGrown));
        assert!(grown, "a HostGrown remark is emitted");
        // The surviving alloc carries the grown (2n) size.
        let alloc_size = on
            .program
            .body
            .stms
            .iter()
            .find_map(|s| match &s.exp {
                Exp::Alloc { size, .. } => Some(size.clone()),
                _ => None,
            })
            .expect("surviving alloc");
        assert_eq!(alloc_size, p(n) * Poly::constant(2));
    }

    /// Hand-built top-level loop that ping-pongs its carried block (the
    /// body allocates a fresh yield block every iteration): the pass
    /// schedules a per-iteration release of the incoming block.
    #[test]
    fn carried_pingpong_gets_release_record() {
        let n = sym("cr_n");
        let steps = sym("cr_steps");
        let blk0 = sym("cr_blk0"); // initial carried block
        let t0 = sym("cr_t0"); // array living in blk0
        let m = sym("cr_m"); // loop mem param
        let t = sym("cr_t"); // loop array param @ m
        let y = sym("cr_y"); // per-iteration yield block
        let t1 = sym("cr_t1"); // fresh array @ y
        let out_m = sym("cr_om");
        let out_t = sym("cr_ot");
        let idx = sym("cr_i");
        let sr = sym("cr_sr");

        let arr_ty = Type::array(ElemType::F32, vec![Poly::var(n)]);
        let lmad = Lmad::new(0, vec![Dim::new(Poly::var(n), 1)]);
        let mem_pat = |v: Var| PatElem::new(v, Type::Mem);
        let arr_pat = |v: Var, blk: Var| PatElem {
            var: v,
            ty: arr_ty.clone(),
            mem: Some(MemBinding {
                block: blk,
                ixfn: IndexFn::from_lmad(lmad.clone()),
            }),
        };

        let body = Block {
            stms: vec![
                Stm {
                    pat: vec![mem_pat(y)],
                    exp: Exp::Alloc {
                        elem: ElemType::F32,
                        size: Poly::var(n),
                    },
                },
                Stm {
                    pat: vec![arr_pat(t1, y)],
                    exp: Exp::Copy(t),
                },
                // A read of the carried array *after* t1 is built: the
                // release must anchor here, not at the copy.
                Stm {
                    pat: vec![PatElem::new(sr, Type::Scalar(ElemType::F32))],
                    exp: Exp::Scalar(ScalarExp::Index(t, vec![ScalarExp::i64(0)])),
                },
            ],
            result: vec![y, t1],
        };
        let prog_body = Block {
            stms: vec![
                Stm {
                    pat: vec![mem_pat(blk0)],
                    exp: Exp::Alloc {
                        elem: ElemType::F32,
                        size: Poly::var(n),
                    },
                },
                Stm {
                    pat: vec![arr_pat(t0, blk0)],
                    exp: Exp::Scratch {
                        elem: ElemType::F32,
                        shape: vec![Poly::var(n)],
                    },
                },
                Stm {
                    pat: vec![mem_pat(out_m), arr_pat(out_t, out_m)],
                    exp: Exp::Loop {
                        params: vec![mem_pat(m), arr_pat(t, m)],
                        inits: vec![blk0, t0],
                        index: idx,
                        count: Poly::var(steps),
                        body,
                    },
                },
            ],
            result: vec![out_t],
        };
        let prog = Program {
            name: "pingpong".into(),
            params: vec![
                (n, Type::Scalar(ElemType::I64)),
                (steps, Type::Scalar(ElemType::I64)),
            ],
            pipeline_fingerprint: 0,
            body: prog_body,
        };
        let mut env = Env::new();
        env.assume_ge(n, 1);

        let mut on = prog.clone();
        let rep_on = merge_blocks(&mut on, &env);
        let carried: Vec<_> = rep_on
            .records
            .iter()
            .filter_map(|r| match r {
                MergeRecord::CarriedRelease {
                    loop_mem,
                    yield_mem,
                    after_stm,
                    color,
                } => Some((*loop_mem, *yield_mem, *after_stm, *color)),
                _ => None,
            })
            .collect();
        assert_eq!(carried.len(), 1, "one carried release: {rep_on:?}");
        let (lm, ym, anchor, color) = carried[0];
        assert_eq!(lm, m);
        assert_eq!(ym, y);
        assert_eq!(anchor, sr, "release anchors after the last carried read");
        assert_eq!(color, 0);
    }

    /// The ping-pong analysis bails when the iteration still yields an
    /// array living in the incoming block.
    #[test]
    fn carried_release_bails_when_block_still_yielded() {
        let n = sym("cb_n");
        let steps = sym("cb_steps");
        let blk0 = sym("cb_blk0");
        let t0 = sym("cb_t0");
        let m = sym("cb_m");
        let t = sym("cb_t");
        let y = sym("cb_y");
        let t1 = sym("cb_t1");
        let out_m = sym("cb_om");
        let out_t = sym("cb_ot");
        let out_m2 = sym("cb_om2");
        let out_t2 = sym("cb_ot2");
        let idx = sym("cb_i");

        let arr_ty = Type::array(ElemType::F32, vec![Poly::var(n)]);
        let lmad = Lmad::new(0, vec![Dim::new(Poly::var(n), 1)]);
        let mem_pat = |v: Var| PatElem::new(v, Type::Mem);
        let arr_pat = |v: Var, blk: Var| PatElem {
            var: v,
            ty: arr_ty.clone(),
            mem: Some(MemBinding {
                block: blk,
                ixfn: IndexFn::from_lmad(lmad.clone()),
            }),
        };

        // The loop yields the *old* array (still @ m) in a second merge
        // slot: the incoming block is not dead at the yield.
        let body = Block {
            stms: vec![
                Stm {
                    pat: vec![mem_pat(y)],
                    exp: Exp::Alloc {
                        elem: ElemType::F32,
                        size: Poly::var(n),
                    },
                },
                Stm {
                    pat: vec![arr_pat(t1, y)],
                    exp: Exp::Copy(t),
                },
            ],
            result: vec![y, t1, t],
        };
        let prog_body = Block {
            stms: vec![
                Stm {
                    pat: vec![mem_pat(blk0)],
                    exp: Exp::Alloc {
                        elem: ElemType::F32,
                        size: Poly::var(n),
                    },
                },
                Stm {
                    pat: vec![arr_pat(t0, blk0)],
                    exp: Exp::Scratch {
                        elem: ElemType::F32,
                        shape: vec![Poly::var(n)],
                    },
                },
                Stm {
                    pat: vec![
                        mem_pat(out_m),
                        arr_pat(out_t, out_m),
                        arr_pat(out_t2, out_m2),
                    ],
                    exp: Exp::Loop {
                        params: vec![mem_pat(m), arr_pat(t, m), arr_pat(out_t2, m)],
                        inits: vec![blk0, t0, t0],
                        index: idx,
                        count: Poly::var(steps),
                        body,
                    },
                },
            ],
            result: vec![out_t],
        };
        let prog = Program {
            name: "pingpong_bail".into(),
            params: vec![
                (n, Type::Scalar(ElemType::I64)),
                (steps, Type::Scalar(ElemType::I64)),
            ],
            pipeline_fingerprint: 0,
            body: prog_body,
        };
        let mut env = Env::new();
        env.assume_ge(n, 1);

        let mut on = prog.clone();
        let rep = merge_blocks(&mut on, &env);
        assert!(
            !rep.records
                .iter()
                .any(|r| matches!(r, MergeRecord::CarriedRelease { .. })),
            "carried release must bail while the block is still yielded: {rep:?}"
        );
    }

    /// Satellite: the coloring's decisions (records, remark-visible
    /// outcomes, rejects) are bit-identical across repeated runs — no
    /// hash-map iteration order leaks into the scan.
    #[test]
    fn coloring_is_deterministic_across_runs() {
        let mut bld = Builder::new("det");
        let n = bld.scalar_param("dt_n", ElemType::I64);
        let mut body = bld.block();
        // A chain of six blocks with staggered, partly overlapping live
        // ranges: several legal colorings exist, so any order instability
        // would surface as a different decision stream.
        let a = body.iota("dt_a", p(n));
        let b = body.copy("dt_b", a);
        let c = body.copy("dt_c", b);
        let d = body.copy("dt_d", c);
        let e = body.copy("dt_e", d);
        let f = body.copy("dt_f", e);
        let blk = body.finish(vec![f]);
        let prog = bld.finish(blk);

        let mut env = Env::new();
        env.assume_ge(n, 1);

        let mut streams: Vec<String> = Vec::new();
        for _ in 0..5 {
            let opts = Options {
                merge: true,
                ..Options::default()
            }
            .with_env(env.clone());
            let compiled = compile(&prog, &opts).expect("compile");
            let mut s = String::new();
            for r in &compiled.compile_report.remarks {
                s.push_str(&format!("{r}\n"));
            }
            for rec in &compiled.report.merges {
                s.push_str(&format!("{rec:?}\n"));
            }
            // Each compile mints fresh `#N` suffixes for the memory
            // variables it introduces; scrub them so the comparison is
            // about *decisions*, not interner state.
            streams.push(arraymem_ir::pretty::scrub_uniques(&s));
        }
        for w in streams.windows(2) {
            assert_eq!(w[0], w[1], "merge decisions drifted across runs");
        }
    }
}
