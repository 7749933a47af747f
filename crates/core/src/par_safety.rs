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
//! - [`Safe`](ParLevel::Safe) — direct writes (no private tile) and
//!   parallel dispatch are both proven race-free. The checked VM re-proves
//!   the disjointness **concretely by enumeration** before each dispatch
//!   and downgrades to serial (with a `ParOverlap` diagnostic) if the
//!   symbolic verdict was wrong.
//! - [`NeedsBuffer`](ParLevel::NeedsBuffer) — parallel dispatch is fine,
//!   but iterations must keep writing into per-worker private tiles, each
//!   copied out to the result (the implicit copy of §V-A(e)).
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

use crate::memtable::MemTable;
use crate::remark::ParReject;
use crate::short_circuit::{inputs_clear, iteration_pair, row_of};
use arraymem_ir::{Exp, MapBody, MapExp, MemBinding, Program, SliceSpec, Var};
use arraymem_lmad::overlap::non_overlap;
use arraymem_lmad::IndexFn;
use arraymem_symbolic::{Env, Poly};

/// How a kernel mapnest may be scheduled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParLevel {
    /// Iterations write disjoint regions: run parallel, in place.
    Safe,
    /// Run parallel, but into private tiles with copy-out.
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
    let table = MemTable::build(prog);
    let mut records = Vec::new();
    prog.body.for_each_stm_in(env, &mut |stm, env| {
        let (level, reject) = match &stm.exp {
            Exp::Map(m) if matches!(&m.body, MapBody::Kernel { .. }) => {
                let out_mb = stm.pat[0]
                    .mem
                    .as_ref()
                    .or_else(|| table.get(stm.pat[0].var));
                classify(m, out_mb, env, &table)
            }
            // A scatter's written positions are data: per-iteration
            // write disjointness is unprovable, not merely unproven
            // (see `arraymem_lmad::OpaqueIxFn`). The record pins the
            // serial schedule — and enters the plan-cache key — so
            // the give-up is observable, never silent.
            Exp::Update {
                slice: SliceSpec::Scatter(_),
                ..
            } => (ParLevel::Serial, Some(ParReject::RuntimeIndexedWrite)),
            _ => return,
        };
        records.push(ParSafetyRecord {
            stm: stm.pat[0].var,
            level,
            reject,
            forced: false,
        });
    });
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

/// Classify one kernel map. `direct` maps (in-place or scalar-row) write
/// the result memory straight from their iterations, so an unproven
/// disjointness means `Serial`; buffered maps privatize their writes, so
/// a failed proof merely keeps the buffer.
fn classify(
    m: &MapExp,
    out_mb: Option<&MemBinding>,
    env: &Env,
    table: &MemTable,
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
    if !inputs_clear(m, out_mb, env, table) {
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
    let (pair, i, j) = iteration_pair(env, width);
    let (Some(w_i), Some(w_j)) = (row_of(out_ixfn, i), row_of(out_ixfn, j)) else {
        return Err(ParReject::RowNotExtractable);
    };
    for a in &w_i.lmads {
        for b in &w_j.lmads {
            if !non_overlap(a, b, &pair) {
                return Err(ParReject::WriteOverlapNotProven);
            }
        }
    }
    Ok(())
}
