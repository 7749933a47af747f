//! The integer instantiation of [`Lmad`] and [`IndexFn`]: the access path.
//!
//! During final code generation "the actual structure of the LMAD for a
//! given array is inlined for every array access" (paper §VII). Our
//! runtime's equivalent is the same LMAD structure with `i64`
//! coefficients, whose `index` computation is a handful of multiply-adds,
//! plus the fast paths the kernels use to keep per-access cost minimal.

use crate::{IndexFn, Lmad};

/// An LMAD whose coefficients are numbers.
pub type ConcreteLmad = Lmad<i64>;

/// An index function whose coefficients are numbers.
pub type ConcreteIxFn = IndexFn<i64>;

impl Lmad<i64> {
    /// Enumerate all points of the LMAD (set semantics) in logical
    /// (row-major over the cardinalities) order.
    pub fn points(&self) -> Vec<i64> {
        let n = self.num_points().max(0) as usize;
        let mut out = Vec::with_capacity(n);
        let mut idx = vec![0i64; self.dims.len()];
        if self.dims.iter().any(|d| d.card <= 0) {
            return out;
        }
        loop {
            out.push(self.apply(&idx));
            // increment mixed-radix counter
            let mut d = self.dims.len();
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.dims[d].card {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// The least and the greatest offset the LMAD touches, in `O(rank)`;
    /// `None` when it touches none.
    pub fn span(&self) -> Option<(i64, i64)> {
        let ends = self.dims.iter().map(|d| (d.card - 1) * d.stride);
        let (lo, hi) = ends.fold((self.offset, self.offset), |(lo, hi), e| {
            (lo + e.min(0), hi + e.max(0))
        });
        self.dims.iter().all(|d| d.card > 0).then_some((lo, hi))
    }

    /// Element offset of flat logical position `flat` (row-major over the
    /// cardinalities): fused unrank + apply, no allocation. This is the
    /// strided access plan's inner loop.
    #[inline]
    pub fn offset_of_flat(&self, mut flat: i64) -> i64 {
        let mut off = self.offset;
        for d in self.dims.iter().rev() {
            off += flat.rem_euclid(d.card) * d.stride;
            flat = flat.div_euclid(d.card);
        }
        off
    }
}

/// Result of a brute-force comparison of two concrete footprints, used by
/// the checked VM to cross-check the compiler's symbolic non-overlap
/// verdicts at runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FootprintCheck {
    /// The two footprints share no element offset.
    Disjoint,
    /// Both footprints contain this offset (the smallest common one).
    Overlap(i64),
    /// A footprint exceeds the enumeration cap; nothing was decided.
    TooLarge,
}

/// Brute-force footprint intersection of two concrete LMADs (set
/// semantics, like [`Lmad::points`]). `cap` bounds the number of
/// points enumerated per side.
pub fn footprint_check(a: &ConcreteLmad, b: &ConcreteLmad, cap: i64) -> FootprintCheck {
    if a.num_points().max(0) > cap || b.num_points().max(0) > cap {
        return FootprintCheck::TooLarge;
    }
    let set: std::collections::HashSet<i64> = a.points().into_iter().collect();
    let mut first: Option<i64> = None;
    for p in b.points() {
        if set.contains(&p) {
            first = Some(first.map_or(p, |q| q.min(p)));
        }
    }
    match first {
        Some(off) => FootprintCheck::Overlap(off),
        None => FootprintCheck::Disjoint,
    }
}

/// Unrank a flat offset `x` into the row-major index space of `shape`.
#[inline]
pub fn unrank(mut x: i64, shape: &[i64], out: &mut [i64]) {
    debug_assert_eq!(shape.len(), out.len());
    for d in (0..shape.len()).rev() {
        let c = shape[d];
        out[d] = x.rem_euclid(c);
        x = x.div_euclid(c);
    }
}

/// The access tier of an integer index function, classified **once** at
/// view creation so per-element address computation costs a couple of
/// integer ops instead of re-deriving the LMAD structure per access.
///
/// Ordered from fastest to most general:
///
/// - [`AccessClass::Contiguous`]: flat position `f` lives at `base + f` —
///   kernels get plain slices, copies get `memcpy`.
/// - [`AccessClass::RowContiguous`]: rows are contiguous but the outer
///   dimension strides arbitrarily (e.g. a rebased sub-matrix):
///   `base + (f / inner)·row_stride + f mod inner`.
/// - [`AccessClass::Strided`]: one LMAD, general strides — fused
///   unrank+apply with no allocation.
/// - [`AccessClass::General`]: an LMAD chain (paper Fig. 3), applied
///   last-to-first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessClass {
    Contiguous {
        base: i64,
    },
    RowContiguous {
        base: i64,
        row_stride: i64,
        inner: i64,
    },
    Strided,
    General,
}

impl IndexFn<i64> {
    pub fn num_elems(&self) -> i64 {
        self.logical().num_points()
    }

    /// Map a logical index to the flat element offset in the memory block.
    pub fn index(&self, idx: &[i64]) -> i64 {
        let mut x = self.lmads.last().unwrap().apply(idx);
        for k in (0..self.lmads.len() - 1).rev() {
            // Unranking over an LMAD's own cardinalities followed by
            // `apply` is exactly `offset_of_flat` — no scratch index.
            x = self.lmads[k].offset_of_flat(x);
        }
        x
    }

    /// Map a flat logical position (row-major over the logical shape) to
    /// the element offset in the memory block.
    pub fn index_flat(&self, flat: i64) -> i64 {
        let mut x = self.lmads.last().unwrap().offset_of_flat(flat);
        for k in (0..self.lmads.len() - 1).rev() {
            x = self.lmads[k].offset_of_flat(x);
        }
        x
    }

    /// Classify the index function into its access tier (done **once**
    /// per view; see [`AccessClass`]). Degenerate cardinalities (zero or
    /// negative) fall back to [`AccessClass::Strided`].
    pub fn classify(&self) -> AccessClass {
        let Some(l) = self.as_single() else {
            return AccessClass::General;
        };
        if l.dims.is_empty() {
            return AccessClass::Contiguous { base: l.offset };
        }
        // Are dims[1..] row-major contiguous? Then `inner` (their point
        // count) is the contiguous row length.
        let mut inner = 1i64;
        for d in l.dims[1..].iter().rev() {
            if d.stride != inner || d.card <= 0 {
                return AccessClass::Strided;
            }
            inner *= d.card;
        }
        let outer = l.dims[0];
        if outer.card <= 0 {
            return AccessClass::Strided;
        }
        if outer.stride == inner {
            return AccessClass::Contiguous { base: l.offset };
        }
        AccessClass::RowContiguous {
            base: l.offset,
            row_stride: outer.stride,
            inner,
        }
    }

    /// `Some(base)` iff logical position `flat` maps to `base + flat` for
    /// all positions, i.e. the view is contiguous row-major — the fast path
    /// for bulk copies and kernel inner loops.
    pub fn contiguous_base(&self) -> Option<i64> {
        let l = self.as_single()?;
        l.is_row_major_contiguous().then_some(l.offset)
    }

    /// The set of element offsets touched, in logical order.
    pub fn all_offsets(&self) -> Vec<i64> {
        let n = self.num_elems().max(0);
        (0..n).map(|f| self.index_flat(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dim;

    #[test]
    fn row_major_matches_manual() {
        let l = ConcreteLmad::row_major(&[3, 4]);
        assert_eq!(
            l.dims,
            vec![Dim { card: 3, stride: 4 }, Dim { card: 4, stride: 1 }]
        );
        assert_eq!(l.apply(&[2, 3]), 11);
        assert!(l.is_row_major_contiguous());
    }

    #[test]
    fn points_enumeration() {
        let l = ConcreteLmad {
            offset: 1,
            dims: vec![Dim { card: 2, stride: 2 }, Dim { card: 4, stride: 8 }],
        };
        assert_eq!(l.points(), vec![1, 9, 17, 25, 3, 11, 19, 27]);
    }

    #[test]
    fn unrank_roundtrip() {
        let shape = [3, 5, 2];
        let mut idx = [0i64; 3];
        for f in 0..30 {
            unrank(f, &shape, &mut idx);
            let back = idx[0] * 10 + idx[1] * 2 + idx[2];
            assert_eq!(back, f);
        }
    }

    /// A span bounds exactly the points, whatever the strides' signs.
    #[test]
    fn span_is_the_least_and_greatest_point() {
        let l = ConcreteLmad {
            offset: 10,
            dims: vec![
                Dim {
                    card: 3,
                    stride: -4,
                },
                Dim { card: 2, stride: 1 },
            ],
        };
        let points = l.points();
        let bounds = (*points.iter().min().unwrap(), *points.iter().max().unwrap());
        assert_eq!(l.span(), Some(bounds));
        assert_eq!(l.span(), Some((2, 11)));
        let empty = ConcreteLmad {
            offset: 0,
            dims: vec![Dim { card: 0, stride: 1 }],
        };
        assert_eq!(empty.span(), None);
    }

    #[test]
    fn footprint_check_finds_smallest_common_offset() {
        // Rows 0..3 of a 6x1 vector vs rows 1..5: overlap starts at 1.
        let a = ConcreteLmad {
            offset: 0,
            dims: vec![Dim { card: 3, stride: 1 }],
        };
        let b = ConcreteLmad {
            offset: 1,
            dims: vec![Dim { card: 4, stride: 1 }],
        };
        assert_eq!(footprint_check(&a, &b, 1 << 10), FootprintCheck::Overlap(1));
        // Even and odd strided footprints are disjoint.
        let evens = ConcreteLmad {
            offset: 0,
            dims: vec![Dim { card: 5, stride: 2 }],
        };
        let odds = ConcreteLmad {
            offset: 1,
            dims: vec![Dim { card: 5, stride: 2 }],
        };
        assert_eq!(
            footprint_check(&evens, &odds, 1 << 10),
            FootprintCheck::Disjoint
        );
        // Cap exceeded: undecided, never a wrong verdict.
        let big = ConcreteLmad {
            offset: 0,
            dims: vec![Dim {
                card: 1 << 20,
                stride: 1,
            }],
        };
        assert_eq!(footprint_check(&big, &a, 1 << 10), FootprintCheck::TooLarge);
    }

    #[test]
    fn contiguous_base_detects_offsets() {
        let mut l = ConcreteLmad::row_major(&[4, 4]);
        l.offset = 7;
        let ix = ConcreteIxFn::from_lmad(l);
        assert_eq!(ix.contiguous_base(), Some(7));
        let t = ConcreteIxFn::from_lmad(ConcreteLmad {
            offset: 0,
            dims: vec![Dim { card: 4, stride: 1 }, Dim { card: 4, stride: 4 }],
        });
        assert_eq!(t.contiguous_base(), None);
    }
}
