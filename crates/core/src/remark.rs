//! Structured optimization remarks (in the spirit of LLVM's `-Rpass`
//! family): every pipeline stage records machine-readable notes about
//! what it did — and, for short-circuiting, *which* legality check killed
//! each rejected candidate — so tests, the `tables` harness and users can
//! consume the optimizer's decisions without parsing prose.

use arraymem_ir::Var;

/// The machine-readable identity of the legality check that rejected a
/// short-circuit candidate. One variant per check of §V's safety
/// properties (plus the implementation-level checks layered on top); the
/// human-readable detail lives in [`CandidateOutcome::reason`]
/// (`crate::CandidateOutcome`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RejectReason {
    /// Property 1: the source is used again after the circuit point.
    NotLastUse,
    /// A concat argument aliases the result or another argument — eliding
    /// it would rebase one alias web onto two destinations (footnote 17;
    /// the fuzzer's historical "aliasing concat args" bug class).
    AliasingConcatArg,
    /// The candidate's destination block was vacated by another web's
    /// rebase before this candidate finished (the fuzzer's historical
    /// "stale rebase" bug class).
    DestinationVacated,
    /// Property 2: the destination memory is not allocated at the web's
    /// fresh definition.
    DestinationNotAllocated,
    /// Property 3: no rebased index function exists — the circuit slice
    /// is not expressible as a transform of the destination's layout.
    SliceNotExpressible,
    /// Property 3b: the rebased index function could not be translated
    /// into scope at the definition it must annotate.
    IxfnNotInScope,
    /// Property 4: a write through the web may overlap a recorded use of
    /// the destination memory (the static non-overlap test of §V-C, its
    /// loop/mapnest variants, or a read-region conflict).
    OverlapTestFailed,
    /// The backward walk ended without reaching the web's fresh
    /// definition.
    FreshDefNotFound,
    /// Loop discipline (Fig. 5b condition 3): the merge parameter is used
    /// at or after the fresh definition, or escapes the body.
    MergeParamOrder,
    /// A change-of-layout transformation in the web is not invertible.
    NonInvertibleTransform,
    /// A web member is defined by an expression the analysis does not
    /// handle (scalar, alloc).
    UnsupportedDefinition,
    /// The candidate writes through a **runtime-indexed** (scatter)
    /// slice: the written positions are read from an index array at
    /// execution time, so no affine rebased index function exists and
    /// the non-overlap test has nothing to reason about (see
    /// `arraymem_lmad::OpaqueIxFn`). The copy is kept; bounds are
    /// enforced dynamically instead.
    RuntimeIndexedWrite,
}

impl RejectReason {
    /// Every variant, for taxonomy-completeness tests.
    pub const ALL: [RejectReason; 12] = [
        RejectReason::NotLastUse,
        RejectReason::AliasingConcatArg,
        RejectReason::DestinationVacated,
        RejectReason::DestinationNotAllocated,
        RejectReason::SliceNotExpressible,
        RejectReason::IxfnNotInScope,
        RejectReason::OverlapTestFailed,
        RejectReason::FreshDefNotFound,
        RejectReason::MergeParamOrder,
        RejectReason::NonInvertibleTransform,
        RejectReason::UnsupportedDefinition,
        RejectReason::RuntimeIndexedWrite,
    ];
}

/// Why the merge pass kept a block's own allocation instead of moving it
/// into an earlier block — the closed reject-reason taxonomy of the
/// merge pass, mirroring [`RejectReason`] for short-circuiting. The
/// precedence (interference over size over element type) reports the
/// reason closest to an actual merge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MergeReject {
    /// The block's variable is consumed by an expression (a loop's
    /// existential-memory initializer), backs a non-top-level binding, or
    /// is a program result: its liveness exceeds what top-level intervals
    /// capture.
    Escapes,
    /// Every candidate host holds a different element type.
    ElemMismatch,
    /// The block's size could not be proved to fit any candidate host.
    SizeNotProvable,
    /// The block's live range overlaps that of every candidate host (or
    /// the host is allocated after the block's first use).
    Interference,
    /// An interference reject of a block accessed through runtime
    /// indices (a gather read or a scatter write). Such a block has no
    /// affine footprint summary (see `arraymem_lmad::OpaqueIxFn`); like
    /// every block, only disjoint lifetimes could let it share.
    RuntimeIndexed,
}

impl MergeReject {
    /// Every variant, for taxonomy-completeness tests.
    pub const ALL: [MergeReject; 5] = [
        MergeReject::Escapes,
        MergeReject::ElemMismatch,
        MergeReject::SizeNotProvable,
        MergeReject::Interference,
        MergeReject::RuntimeIndexed,
    ];
}

/// Why the parallel-safety stage stopped short of the strongest verdict
/// for a kernel mapnest — the closed reject-reason taxonomy of the
/// `par_safety` pass, mirroring [`RejectReason`] and [`MergeReject`].
/// `NeedsBuffer`-level records carry the reason direct writes were not
/// proven safe; `Serial`-level records carry the reason even the map's
/// existing direct-write schedule could not be proven race-free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParReject {
    /// The map's result has no memory annotation to derive a write LMAD
    /// from.
    NoMemBinding,
    /// The per-iteration write footprint is not expressible as a slice of
    /// the result's index function (e.g. the outer dimension cannot be
    /// fixed symbolically).
    RowNotExtractable,
    /// `non_overlap` could not prove the write rows of two distinct
    /// iterations disjoint.
    WriteOverlapNotProven,
    /// An input view aliases the result's memory block and neither full
    /// disjointness nor row-wise disjointness is provable.
    InputInterference,
    /// Every proof succeeded, but the pass did not mark the map in-place:
    /// it keeps the private tiles and runs parallel through them.
    PrivateBuffer,
    /// The statement writes through a **runtime-indexed** (scatter)
    /// footprint: per-iteration write disjointness is not just unproven
    /// but unprovable — the written positions are data (see
    /// `arraymem_lmad::OpaqueIxFn`). The executor keeps the serial
    /// schedule; checked mode validates every index against its extent.
    RuntimeIndexedWrite,
}

impl ParReject {
    /// Every variant, for taxonomy-completeness tests.
    pub const ALL: [ParReject; 6] = [
        ParReject::NoMemBinding,
        ParReject::RowNotExtractable,
        ParReject::WriteOverlapNotProven,
        ParReject::InputInterference,
        ParReject::PrivateBuffer,
        ParReject::RuntimeIndexedWrite,
    ];
}

/// What a remark reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RemarkKind {
    /// `short_circuit`: a candidate succeeded and its copy was elided.
    CircuitElided,
    /// `short_circuit`: a candidate was rejected by the named check.
    CircuitRejected(RejectReason),
    /// `short_circuit`: a kernel mapnest constructs its rows in place.
    MapInPlace,
    /// `antiunify`: an `if`/`loop` result carries existential memory.
    ExistentialMemory,
    /// `introduce`: anti-unification failed and a normalization copy was
    /// inserted (§IV-C).
    NormalizationCopy,
    /// `hoist`: allocations (and their size scalars) moved upward.
    Hoisted,
    /// `merge`: a block's tenants were moved into another allocation.
    BlocksMerged,
    /// `merge` (coloring): a host allocation's size was grown so a
    /// provably larger later member could share its color.
    HostGrown,
    /// `merge` (coloring): a loop's dead carried ping-pong block is
    /// released inside the body each iteration instead of surviving to
    /// the end-of-run sweep.
    CarriedRelease,
    /// `merge`: a block kept its own allocation for the named reason.
    MergeRejected(MergeReject),
    /// `cleanup`: a dead allocation was removed.
    DeadAllocRemoved,
    /// `par_safety`: a kernel mapnest's per-iteration write LMADs were
    /// proven chunk-wise disjoint — it runs parallel and in place.
    MapParallelSafe,
    /// `par_safety`: a kernel mapnest fell short of the `Safe` verdict
    /// for the named reason (it runs buffered-parallel or serial).
    MapParRejected(ParReject),
    /// `release`: early release points were scheduled.
    ReleaseScheduled,
}

/// One structured remark: which pass, anchored to which statement (when
/// one is identifiable), what happened, and a human-readable message.
#[derive(Clone, Debug)]
pub struct Remark {
    /// Name of the pipeline stage that emitted the remark.
    pub pass: &'static str,
    /// The statement the remark anchors to — its first pattern variable —
    /// when the remark is about one statement rather than the program.
    pub stm: Option<Var>,
    pub kind: RemarkKind,
    pub message: String,
}

impl std::fmt::Display for Remark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.pass)?;
        if let Some(v) = self.stm {
            write!(f, "{v}: ")?;
        }
        write!(f, "{}", self.message)
    }
}
