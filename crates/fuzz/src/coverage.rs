//! The corpus-growth signal: a (pass × remark-kind) bitmap over compile
//! reports, plus named mechanism counters over run stats.
//!
//! A trace is *interesting* — worth adding to the corpus — when replaying
//! it lights a bit no earlier trace lit: a pass emitted a remark kind
//! (down to the individual reject-reason variant) it had not emitted
//! before, or a runtime mechanism (copy elision, block merging, parallel
//! in-place dispatch, free-list reuse, …) engaged for the first time.
//! This is deliberately the same granularity the taxonomy-completeness
//! test wants, so one structure serves both.

use arraymem_core::{CompileReport, MergeReject, ParReject, RejectReason, Remark, RemarkKind};
use arraymem_exec::Stats;
use std::collections::{BTreeSet, HashSet};

/// A stable small integer per remark kind, with reject-taxonomy variants
/// given their own bits.
pub fn kind_bit(kind: &RemarkKind) -> u16 {
    let pos = |p: Option<usize>| p.expect("variant present in its ALL array") as u16;
    match kind {
        RemarkKind::CircuitElided => 0,
        RemarkKind::MapInPlace => 1,
        RemarkKind::ExistentialMemory => 2,
        RemarkKind::NormalizationCopy => 3,
        RemarkKind::Hoisted => 4,
        RemarkKind::BlocksMerged => 5,
        RemarkKind::DeadAllocRemoved => 6,
        RemarkKind::MapParallelSafe => 7,
        RemarkKind::ReleaseScheduled => 8,
        RemarkKind::HostGrown => 9,
        RemarkKind::CarriedRelease => 10,
        RemarkKind::CircuitRejected(r) => 16 + pos(RejectReason::ALL.iter().position(|x| x == r)),
        RemarkKind::MergeRejected(m) => 48 + pos(MergeReject::ALL.iter().position(|x| x == m)),
        RemarkKind::MapParRejected(p) => 64 + pos(ParReject::ALL.iter().position(|x| x == p)),
    }
}

/// Accumulated coverage across replayed traces.
#[derive(Default, Clone, Debug)]
pub struct Coverage {
    /// (pass name, remark-kind bit) pairs observed.
    bits: BTreeSet<(&'static str, u16)>,
    /// Mechanism counters observed nonzero at least once.
    mech: BTreeSet<&'static str>,
    /// Reject variants observed, per taxonomy (for completeness tests).
    pub reject_reasons: HashSet<RejectReason>,
    pub merge_rejects: HashSet<MergeReject>,
    pub par_rejects: HashSet<ParReject>,
}

impl Coverage {
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Record one remark; true if it lit a new bit.
    pub fn observe_remark(&mut self, r: &Remark) -> bool {
        match r.kind {
            RemarkKind::CircuitRejected(why) => {
                self.reject_reasons.insert(why);
            }
            RemarkKind::MergeRejected(why) => {
                self.merge_rejects.insert(why);
            }
            RemarkKind::MapParRejected(why) => {
                self.par_rejects.insert(why);
            }
            _ => {}
        }
        self.bits.insert((r.pass, kind_bit(&r.kind)))
    }

    /// Record a whole compile report; true if anything was new.
    pub fn observe_report(&mut self, report: &CompileReport) -> bool {
        let mut grew = false;
        for r in &report.remarks {
            grew |= self.observe_remark(r);
        }
        grew
    }

    /// Record a run's mechanism counters; true if a mechanism engaged for
    /// the first time.
    pub fn observe_stats(&mut self, stats: &Stats) -> bool {
        let mut grew = false;
        let mut mark = |name: &'static str, engaged: bool| {
            if engaged {
                grew |= self.mech.insert(name);
            }
        };
        mark("bytes_elided", stats.bytes_elided > 0);
        mark("blocks_merged", stats.blocks_merged > 0);
        mark("carried_releases", stats.carried_releases > 0);
        mark("color_slab_hits", stats.color_slab_hits > 0);
        mark("blocks_reused", stats.blocks_reused > 0);
        mark("bytes_zeroing_elided", stats.bytes_zeroing_elided > 0);
        mark("maps_parallel_in_place", stats.maps_parallel_in_place > 0);
        mark("pool_dispatches", stats.pool_dispatches > 0);
        mark("par_chunks_stolen", stats.par_chunks_stolen > 0);
        mark("circuits_verified", stats.circuits_verified > 0);
        mark("par_checks_verified", stats.par_checks_verified > 0);
        grew
    }

    /// Number of lit bits (remark bitmap + mechanisms) — the scalar the
    /// growth demonstration charts.
    pub fn popcount(&self) -> usize {
        self.bits.len() + self.mech.len()
    }

    /// The lit (pass, bit) pairs, for debugging corpus composition.
    pub fn bits(&self) -> impl Iterator<Item = &(&'static str, u16)> {
        self.bits.iter()
    }
}
