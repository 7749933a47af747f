//! Index functions: chains of LMADs mapping logical array indexes to flat
//! offsets inside a memory block (paper §IV). Like [`Lmad`], generic over
//! the coefficients: symbolic in the compiler, integers at run time.

use crate::lmad::{Coeff, Dim, Lmad};
use arraymem_symbolic::{Poly, Sym};
use std::fmt::Debug;

/// A triplet-notation slice of one dimension: either a strided range
/// (keeps the dimension) or a fixed index (drops it).
#[derive(Clone, Debug, PartialEq)]
pub enum TripletSlice<C = Poly> {
    /// `[start ; len ; step]` — `len` elements starting at `start`,
    /// advancing by `step` (§IV-B).
    Range { start: C, len: C, step: C },
    /// A single index; removes the dimension.
    Fix(C),
}

impl TripletSlice {
    pub fn full(len: impl Into<Poly>) -> TripletSlice {
        TripletSlice::Range {
            start: Poly::zero(),
            len: len.into(),
            step: Poly::constant(1),
        }
    }

    pub fn range(start: impl Into<Poly>, len: impl Into<Poly>, step: impl Into<Poly>) -> Self {
        TripletSlice::Range {
            start: start.into(),
            len: len.into(),
            step: step.into(),
        }
    }
}

/// A change-of-layout transformation (paper footnote 12). All of these are
/// O(1) on index functions: no elements move in memory.
#[derive(Clone, Debug, PartialEq)]
pub enum Transform<C = Poly> {
    /// Permute dimensions; `perm[k]` is the source dimension that becomes
    /// result dimension `k`. Transposition of a matrix is `Permute([1,0])`.
    Permute(Vec<usize>),
    /// Triplet-notation slicing, one entry per source dimension.
    Slice(Vec<TripletSlice<C>>),
    /// Generalized LMAD slicing (§III-B): the slice LMAD's points index the
    /// flat (row-major) index space of the source array.
    LmadSlice(Lmad<C>),
    /// Reshape to a new logical shape (same number of elements).
    Reshape(Vec<C>),
    /// Reverse one dimension.
    Reverse(usize),
}

impl<C> Transform<C> {
    /// The same transform over other coefficients (see [`Lmad::map`]).
    pub fn map<D>(&self, mut f: impl FnMut(&C) -> Option<D>) -> Option<Transform<D>> {
        Some(match self {
            Transform::Permute(p) => Transform::Permute(p.clone()),
            Transform::Reverse(d) => Transform::Reverse(*d),
            Transform::Reshape(s) => Transform::Reshape(s.iter().map(f).collect::<Option<_>>()?),
            Transform::Slice(ts) => Transform::Slice(
                ts.iter()
                    .map(|t| {
                        Some(match t {
                            TripletSlice::Range { start, len, step } => TripletSlice::Range {
                                start: f(start)?,
                                len: f(len)?,
                                step: f(step)?,
                            },
                            TripletSlice::Fix(i) => TripletSlice::Fix(f(i)?),
                        })
                    })
                    .collect::<Option<_>>()?,
            ),
            Transform::LmadSlice(l) => Transform::LmadSlice(l.map(f)?),
        })
    }
}

impl<C: Coeff> Transform<C> {
    /// The inverse transformation, when one exists (§V-A: "we currently
    /// support only the transformations that are invertible — such as
    /// reverting the elements of a dimension and permuting an array's
    /// dimensions"). `input_shape` is the shape of the transform's *input*
    /// array, needed to invert reshapes. Slices select subsets and are not
    /// invertible.
    pub fn invert(&self, input_shape: &[C]) -> Option<Transform<C>> {
        match self {
            Transform::Permute(p) => {
                let mut inv = vec![0; p.len()];
                for (k, &src) in p.iter().enumerate() {
                    inv[src] = k;
                }
                Some(Transform::Permute(inv))
            }
            Transform::Reverse(d) => Some(Transform::Reverse(*d)),
            Transform::Reshape(_) => Some(Transform::Reshape(input_shape.to_vec())),
            Transform::Slice(_) | Transform::LmadSlice(_) => None,
        }
    }

    /// Shape of the result of applying this transform to an array of shape
    /// `in_shape`.
    pub fn result_shape(&self, in_shape: &[C]) -> Vec<C> {
        match self {
            Transform::Permute(p) => p.iter().map(|&i| in_shape[i].clone()).collect(),
            Transform::Slice(ts) => ts
                .iter()
                .filter_map(|t| match t {
                    TripletSlice::Range { len, .. } => Some(len.clone()),
                    TripletSlice::Fix(_) => None,
                })
                .collect(),
            Transform::LmadSlice(l) => l.shape(),
            Transform::Reshape(s) => s.clone(),
            Transform::Reverse(_) => in_shape.to_vec(),
        }
    }
}

/// The footprint of a **runtime-indexed** (gather/scatter) access: the
/// element positions are read from an index array at execution time, so
/// no affine LMAD summary of the touched cells exists. The only static
/// knowledge is cardinality (`count` accesses happen) and the `extent`
/// the indices are bounds-checked against.
///
/// Every affine reasoning engine in the pipeline must treat an opaque
/// footprint as *potentially overlapping everything inside its extent*:
/// `non_overlap`-style disjointness is never provable against it, and
/// the passes degrade soundly by rejecting (with a remark) instead of
/// optimizing. Lifetime-based reasoning (release scheduling, liveness,
/// lifetime-only block sharing) stays valid.
#[derive(Clone, Debug, PartialEq)]
pub struct OpaqueIxFn {
    /// Number of runtime-indexed element accesses (the index array's
    /// length).
    pub count: Poly,
    /// The region the runtime indices select within: every access lands
    /// in `[0, extent)` of the underlying array, enforced dynamically
    /// (checked mode reports violations as structured diagnostics; the
    /// other modes fail the run).
    pub extent: Poly,
}

impl OpaqueIxFn {
    pub fn new(count: impl Into<Poly>, extent: impl Into<Poly>) -> OpaqueIxFn {
        OpaqueIxFn {
            count: count.into(),
            extent: extent.into(),
        }
    }
}

impl std::fmt::Display for OpaqueIxFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "opaque[{:?} runtime-indexed accesses within extent {:?}]",
            self.count, self.extent
        )
    }
}

/// An index function: a non-empty chain of LMADs (paper §IV-B).
///
/// Application (Fig. 3): apply the **last** LMAD to the logical index,
/// producing an offset; *unrank* that offset with respect to the index
/// space of the previous LMAD; apply it; repeat. The **first** LMAD thus
/// produces the flat offset into the memory block. Most index functions
/// are a single LMAD; chains only arise from reshapes that no single LMAD
/// can express (e.g. flattening a column-major matrix).
#[derive(Clone, PartialEq, Eq)]
pub struct IndexFn<C = Poly> {
    pub lmads: Vec<Lmad<C>>,
}

impl<C> IndexFn<C> {
    pub fn from_lmad(l: Lmad<C>) -> IndexFn<C> {
        IndexFn { lmads: vec![l] }
    }

    /// The logical LMAD — the one applied directly to array indexes.
    pub fn logical(&self) -> &Lmad<C> {
        self.lmads.last().unwrap()
    }

    pub fn rank(&self) -> usize {
        self.logical().rank()
    }

    /// `Some` iff the chain is a single LMAD.
    pub fn as_single(&self) -> Option<&Lmad<C>> {
        if self.lmads.len() == 1 {
            Some(&self.lmads[0])
        } else {
            None
        }
    }

    /// The same chain over other coefficients (see [`Lmad::map`]).
    pub fn map<D>(&self, mut f: impl FnMut(&C) -> Option<D>) -> Option<IndexFn<D>> {
        let lmads = self.lmads.iter().map(|l| l.map(&mut f));
        Some(IndexFn {
            lmads: lmads.collect::<Option<_>>()?,
        })
    }
}

impl<C: Coeff> IndexFn<C> {
    /// Row-major index function for a fresh array of the given shape.
    pub fn row_major(shape: &[C]) -> IndexFn<C> {
        IndexFn::from_lmad(Lmad::row_major(shape))
    }

    pub fn col_major(shape: &[C]) -> IndexFn<C> {
        IndexFn::from_lmad(Lmad::col_major(shape))
    }

    /// Logical array shape.
    pub fn shape(&self) -> Vec<C> {
        self.logical().shape()
    }

    /// Apply a change-of-layout transformation, producing the index function
    /// of the result array. O(1); never manifests elements.
    pub fn transform(&self, t: &Transform<C>) -> Option<IndexFn<C>> {
        let mut out = self.clone();
        let logical = out.lmads.last_mut().unwrap();
        match t {
            Transform::Permute(p) => {
                if p.len() != logical.rank() {
                    return None;
                }
                *logical = logical.permute(p);
            }
            Transform::Reverse(d) => {
                if *d >= logical.rank() {
                    return None;
                }
                let dim = &mut logical.dims[*d];
                logical.offset =
                    logical.offset.clone() + (dim.card.clone() - C::from(1)) * dim.stride.clone();
                dim.stride = -(dim.stride.clone());
            }
            Transform::Slice(ts) => {
                if ts.len() != logical.rank() {
                    return None;
                }
                let mut offset = logical.offset.clone();
                let mut dims = Vec::new();
                for (sl, d) in ts.iter().zip(&logical.dims) {
                    match sl {
                        TripletSlice::Range { start, len, step } => {
                            offset = offset + start.clone() * d.stride.clone();
                            dims.push(Dim {
                                card: len.clone(),
                                stride: d.stride.clone() * step.clone(),
                            });
                        }
                        TripletSlice::Fix(i) => {
                            offset = offset + i.clone() * d.stride.clone();
                        }
                    }
                }
                *logical = Lmad { offset, dims };
            }
            Transform::LmadSlice(s) => {
                // The slice's points index the flat row-major space of the
                // logical array; push and coalesce.
                out.lmads.push(s.clone());
                out.coalesce();
            }
            Transform::Reshape(new_shape) => {
                if logical.is_row_major_contiguous() {
                    let off = logical.offset.clone();
                    let mut fresh = Lmad::row_major(new_shape);
                    fresh.offset = off;
                    *logical = fresh;
                } else {
                    out.lmads.push(Lmad::row_major(new_shape));
                    out.coalesce();
                }
            }
        }
        Some(out)
    }

    /// Try to shrink the chain: a pushed LMAD `S` composes with its
    /// predecessor `L` when `L` is rank-1 (`S`'s flat positions directly
    /// scale through `L`'s stride) or when `L` is row-major contiguous
    /// (unrank-then-apply is the identity plus `L`'s offset).
    fn coalesce(&mut self) {
        loop {
            if self.lmads.len() < 2 {
                return;
            }
            let prev = self.lmads[self.lmads.len() - 2].clone();
            let last = self.lmads.last().unwrap().clone();
            let fused = if prev.rank() == 1 {
                let s = prev.dims[0].stride.clone();
                Some(Lmad {
                    offset: prev.offset.clone() + last.offset.clone() * s.clone(),
                    dims: last
                        .dims
                        .iter()
                        .map(|d| Dim {
                            card: d.card.clone(),
                            stride: d.stride.clone() * s.clone(),
                        })
                        .collect(),
                })
            } else if prev.is_row_major_contiguous() {
                Some(Lmad {
                    offset: prev.offset.clone() + last.offset.clone(),
                    dims: last.dims.clone(),
                })
            } else {
                None
            };
            match fused {
                Some(f) => {
                    self.lmads.pop();
                    *self.lmads.last_mut().unwrap() = f;
                }
                None => return,
            }
        }
    }

    /// Rebase: given that this index function addresses the *destination*
    /// space (e.g. the `W` slice of `xss`), produce the index function of an
    /// array whose transform `t` yielded the short-circuited array — i.e.
    /// solve `W = t ∘ ixfn` for `ixfn` by applying `t⁻¹` (paper §V-A(a)).
    pub fn untransform(&self, t: &Transform<C>, input_shape: &[C]) -> Option<IndexFn<C>> {
        let inv = t.invert(input_shape)?;
        self.transform(&inv)
    }
}

/// The prover-facing operations, which need symbols.
impl IndexFn {
    /// Symbolic application; only defined for single-LMAD chains (unranking
    /// is not polynomial). Multi-LMAD chains are applied in integers
    /// ([`IndexFn::index`]).
    pub fn apply(&self, idx: &[Poly]) -> Option<Poly> {
        Some(self.as_single()?.apply(idx))
    }

    /// All variables appearing in the chain.
    pub fn vars(&self) -> Vec<Sym> {
        let mut vs: Vec<Sym> = self.lmads.iter().flat_map(|l| l.vars()).collect();
        vs.sort();
        vs.dedup();
        vs
    }

    pub fn subst(&self, s: Sym, value: &Poly) -> IndexFn {
        IndexFn {
            lmads: self.lmads.iter().map(|l| l.subst(s, value)).collect(),
        }
    }
}

impl<C: Debug> Debug for IndexFn<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(l) = self.as_single() {
            write!(f, "{l:?}")
        } else {
            write!(f, "compose[")?;
            for (i, l) in self.lmads.iter().enumerate() {
                if i > 0 {
                    write!(f, " ∘ ")?;
                }
                write!(f, "{l:?}")?;
            }
            write!(f, "]")
        }
    }
}
