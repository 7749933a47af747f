//! Parallel-safety analysis for kernel mapnests (the `par_safety` stage).
//!
//! The executor dispatches a kernel mapnest's iterations across worker
//! threads in arbitrary chunks. That schedule is only legal when no two
//! iterations touch the same memory in conflicting ways. This pass
//! derives, for every kernel map, the symbolic per-iteration *write*
//! LMAD — row `i` of the result's (possibly rebased) index function —
//! and proves chunk-wise disjointness with the same
//! [`non_overlap`](arraymem_lmad::overlap::non_overlap) test the
//! short-circuiting analysis trusts (§V-C): writes of iteration `i` must
//! be disjoint from writes of every iteration `j = i + 1 + d`, `d ≥ 0`,
//! within the map's width. Inputs aliasing the result's block are held to
//! the row-wise read/write discipline the in-place marking pass already
//! enforces.
//!
//! The verdict is a three-level [`ParLevel`]:
//!
//! - [`Safe`](ParLevel::Safe) — direct writes (no private-row buffer) and
//!   parallel dispatch are both proven race-free. The checked VM re-proves
//!   the disjointness **concretely by enumeration** before each dispatch
//!   and downgrades to serial (with a `ParOverlap` diagnostic) if the
//!   symbolic verdict was wrong.
//! - [`NeedsBuffer`](ParLevel::NeedsBuffer) — parallel dispatch is fine,
//!   but iterations must keep writing through private row buffers with a
//!   sequential copy-out (the implicit copy of §V-A(e)).
//! - [`Serial`](ParLevel::Serial) — the map writes its result directly
//!   (it is marked in-place or has scalar rows) yet cross-iteration
//!   disjointness is *not* provable: the only sound schedule is serial.
//!
//! Every non-`Safe` verdict names the failed proof via the closed
//! [`ParReject`] taxonomy. Records travel to the executor in
//! [`Report::par_safety`](crate::Report) — the same transport the circuit
//! checks and merge records use — and lowering threads them into the
//! `ExecPlan`'s map instructions.
//!
//! The `Sabotage::Parallel` mutation hook (`force_safe`) upgrades every
//! kernel map to `Safe` regardless of proof, so tests can demonstrate the
//! checked VM's `ParOverlap` detector actually fires.

use crate::remark::ParReject;
use crate::short_circuit::{ixfn_set, rowwise_map_disjoint};
use arraymem_ir::{Block, Exp, MapBody, MapExp, MemBinding, Program, SliceSpec, Var};
use arraymem_lmad::overlap::non_overlap;
use arraymem_lmad::{IndexFn, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{Env, Poly, Sym};
use std::collections::HashMap;

/// How a kernel mapnest may be scheduled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParLevel {
    /// Iterations write disjoint regions: run parallel, in place.
    Safe,
    /// Run parallel, but through private row buffers with copy-out.
    NeedsBuffer,
    /// Direct writes with unproven disjointness: run serially.
    Serial,
}

/// One mapnest's parallel-safety verdict, keyed by the variable its
/// statement binds. `Debug`-rendered into the executor's plan-cache key
/// (like `CircuitCheck` and `MergeRecord`).
#[derive(Clone, Debug)]
pub struct ParSafetyRecord {
    /// First pattern variable of the map statement.
    pub stm: Var,
    pub level: ParLevel,
    /// For non-`Safe` verdicts (or forced ones): the failed proof.
    pub reject: Option<ParReject>,
    /// Set when `Sabotage::Parallel` overrode the analysis to `Safe`.
    pub forced: bool,
}

/// Analyze every kernel mapnest of `prog`, returning one record per map.
pub fn par_safety(prog: &Program, env: &Env) -> Vec<ParSafetyRecord> {
    let mut bindings: HashMap<Var, MemBinding> = HashMap::new();
    crate::introduce::collect_bindings(&prog.body, &mut bindings);
    for (v, ty) in &prog.params {
        if ty.is_array() {
            bindings.entry(*v).or_insert_with(|| MemBinding {
                block: crate::memtable::param_block_sym(*v),
                ixfn: IndexFn::row_major(ty.shape()),
            });
        }
    }
    let mut records = Vec::new();
    walk(&prog.body, env, &bindings, &mut records);
    records
}

/// The `Sabotage::Parallel` mutation hook: every kernel-map verdict
/// becomes [`ParLevel::Safe`], the genuine reject kept on the record.
/// Scatter records stay serial — the executor has no parallel schedule
/// for a scatter to be forced onto.
pub(crate) fn force_safe(records: &mut [ParSafetyRecord]) {
    for r in records {
        if r.level != ParLevel::Safe && r.reject != Some(ParReject::RuntimeIndexedWrite) {
            r.level = ParLevel::Safe;
            r.forced = true;
        }
    }
}

fn walk(
    block: &Block,
    env: &Env,
    bindings: &HashMap<Var, MemBinding>,
    out: &mut Vec<ParSafetyRecord>,
) {
    for stm in &block.stms {
        match &stm.exp {
            Exp::Map(m) => {
                if matches!(&m.body, MapBody::Kernel { .. }) {
                    let out_mb = stm.pat[0]
                        .mem
                        .clone()
                        .or_else(|| bindings.get(&stm.pat[0].var).cloned());
                    let (level, reject) = classify(m, out_mb, env, bindings);
                    out.push(ParSafetyRecord {
                        stm: stm.pat[0].var,
                        level,
                        reject,
                        forced: false,
                    });
                }
            }
            Exp::Update {
                slice: SliceSpec::Scatter(_),
                ..
            } => {
                // A scatter's written positions are data: per-iteration
                // write disjointness is unprovable, not merely unproven
                // (see `arraymem_lmad::OpaqueIxFn`). The record pins the
                // serial schedule — and enters the plan-cache key — so
                // the give-up is observable, never silent.
                out.push(ParSafetyRecord {
                    stm: stm.pat[0].var,
                    level: ParLevel::Serial,
                    reject: Some(ParReject::RuntimeIndexedWrite),
                    forced: false,
                });
            }
            Exp::If { then_b, else_b, .. } => {
                walk(then_b, env, bindings, out);
                walk(else_b, env, bindings, out);
            }
            Exp::Loop {
                index, count, body, ..
            } => {
                let mut env2 = env.clone();
                env2.assume_ge(*index, 0);
                env2.assume_le(*index, count.clone() - Poly::constant(1));
                walk(body, &env2, bindings, out);
            }
            _ => {}
        }
    }
}

/// Classify one kernel map. `direct` maps (in-place or scalar-row) write
/// the result memory straight from their iterations, so an unproven
/// disjointness means `Serial`; buffered maps privatize their writes, so
/// a failed proof merely keeps the buffer.
fn classify(
    m: &MapExp,
    out_mb: Option<MemBinding>,
    env: &Env,
    bindings: &HashMap<Var, MemBinding>,
) -> (ParLevel, Option<ParReject>) {
    let scalar_rows = matches!(&m.body, MapBody::Kernel { row_shape, .. } if row_shape.is_empty());
    let direct = m.in_place_result || scalar_rows;
    let fallback = |why: ParReject| {
        if direct {
            (ParLevel::Serial, Some(why))
        } else {
            (ParLevel::NeedsBuffer, Some(why))
        }
    };
    let Some(out_mb) = out_mb else {
        return fallback(ParReject::NoMemBinding);
    };
    if let Err(why) = writes_disjoint(&out_mb.ixfn, &m.width, env) {
        return fallback(why);
    }
    if !inputs_clear(m, &out_mb, env, bindings) {
        return fallback(ParReject::InputInterference);
    }
    if direct {
        (ParLevel::Safe, None)
    } else {
        (ParLevel::NeedsBuffer, Some(ParReject::PrivateBuffer))
    }
}

/// Prove that the write rows of two distinct iterations are disjoint:
/// with fresh symbols `i, d ≥ 0` and `j = i + 1 + d`, both within
/// `[0, width)`, every LMAD of row `i` must be `non_overlap` with every
/// LMAD of row `j`.
fn writes_disjoint(out_ixfn: &IndexFn, width: &Poly, env: &Env) -> Result<(), ParReject> {
    let i = Sym::fresh("par_i");
    let d = Sym::fresh("par_d");
    let row = |at: Poly| -> Option<Vec<Lmad>> {
        let shape = out_ixfn.shape();
        if shape.is_empty() {
            return None;
        }
        let mut ts = vec![TripletSlice::Fix(at)];
        for s in &shape[1..] {
            ts.push(TripletSlice::full(s.clone()));
        }
        Some(out_ixfn.transform(&Transform::Slice(ts))?.lmads.clone())
    };
    let mut env2 = env.clone();
    env2.assume_ge(i, 0);
    env2.assume_ge(d, 0);
    // Both i and j = i + 1 + d lie in [0, width).
    env2.assume_le(i, width.clone() - Poly::constant(2) - Poly::var(d));
    env2.assume_le(d, width.clone() - Poly::constant(2));
    let j = Poly::var(i) + Poly::constant(1) + Poly::var(d);
    let (Some(w_i), Some(w_j)) = (row(Poly::var(i)), row(j)) else {
        return Err(ParReject::RowNotExtractable);
    };
    for a in &w_i {
        for b in &w_j {
            if !non_overlap(a, b, &env2) {
                return Err(ParReject::WriteOverlapNotProven);
            }
        }
    }
    Ok(())
}

/// The input-aliasing discipline of the in-place marking pass, re-proved
/// here for scalar-row maps (which execute directly without ever being
/// marked in-place): every input sharing the result's block must be fully
/// disjoint from the output footprint, or row-wise disjoint across
/// iterations.
fn inputs_clear(
    m: &MapExp,
    out_mb: &MemBinding,
    env: &Env,
    bindings: &HashMap<Var, MemBinding>,
) -> bool {
    let out_set = ixfn_set(&out_mb.ixfn);
    let whole: &[usize] = match &m.body {
        MapBody::Kernel { whole_inputs, .. } => whole_inputs,
        MapBody::Lambda { .. } => &[],
    };
    for (ii, inp) in m.inputs.iter().enumerate() {
        let Some(imb) = bindings.get(inp) else {
            continue;
        };
        if imb.block != out_mb.block {
            continue;
        }
        if out_set.disjoint_from(&ixfn_set(&imb.ixfn), env) {
            continue;
        }
        let row_wise = !whole.contains(&ii) && imb.ixfn.rank() >= 1;
        if row_wise && rowwise_map_disjoint(&out_mb.ixfn, &imb.ixfn, &m.width, env) {
            continue;
        }
        return false;
    }
    true
}
