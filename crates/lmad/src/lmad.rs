//! The LMAD type, generic over its coefficients, and its basic operations.
//!
//! The compiler reasons about LMADs whose coefficients are symbolic
//! ([`Poly`], the default); the runtime addresses memory through the same
//! structure with numbers in it (`i64`, see [`crate::concrete`]). The
//! structure and the layout algebra are written once, over the ring
//! operations both coefficient types have ([`Coeff`]).

use arraymem_symbolic::{Env, Poly, Sym};
use std::fmt::Debug;
use std::ops::{Add, Mul, Neg, Sub};

/// What the layout algebra needs of a coefficient: a commutative ring with
/// the integers embedded and a decidable equality. Canonical polynomials
/// and machine integers both qualify. A bound spelled once, not an
/// extension point: the crate does not export it.
pub trait Coeff:
    Clone
    + PartialEq
    + From<i64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
{
}

impl<T> Coeff for T where
    T: Clone
        + PartialEq
        + From<i64>
        + Add<Output = T>
        + Sub<Output = T>
        + Mul<Output = T>
        + Neg<Output = T>
{
}

/// One LMAD dimension: a cardinality (number of points) and a stride (the
/// linearized distance between consecutive points on this dimension).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim<C = Poly> {
    pub card: C,
    pub stride: C,
}

impl Dim {
    pub fn new(card: impl Into<Poly>, stride: impl Into<Poly>) -> Dim {
        Dim {
            card: card.into(),
            stride: stride.into(),
        }
    }
}

impl<C: Debug> Debug for Dim<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:?} : {:?})", self.card, self.stride)
    }
}

/// A q-dimensional LMAD: an offset plus `q` `(cardinality : stride)` pairs,
/// outermost dimension first (paper eq. (1)). Strides may be negative
/// (e.g. reversed dimensions).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Lmad<C = Poly> {
    pub offset: C,
    pub dims: Vec<Dim<C>>,
}

impl<C> Lmad<C> {
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The same LMAD over other coefficients: `f` applied to the offset and
    /// to every cardinality and stride, `None` as soon as `f` is. This is
    /// how a symbolic LMAD is lowered (`Poly` → slot-resolved polynomial)
    /// and how a lowered one is evaluated (→ `i64`).
    pub fn map<D>(&self, mut f: impl FnMut(&C) -> Option<D>) -> Option<Lmad<D>> {
        let offset = f(&self.offset)?;
        let mut dims = Vec::with_capacity(self.dims.len());
        for d in &self.dims {
            dims.push(Dim {
                card: f(&d.card)?,
                stride: f(&d.stride)?,
            });
        }
        Some(Lmad { offset, dims })
    }
}

impl<C: Coeff> Lmad<C> {
    /// Row-major index function `R(d1, ..., dq)` with zero offset
    /// (paper §IV-A): strides are suffix products of the dimensions.
    pub fn row_major(shape: &[C]) -> Lmad<C> {
        let mut dims = Vec::with_capacity(shape.len());
        let mut stride = C::from(1);
        for d in shape.iter().rev() {
            dims.push(Dim {
                card: d.clone(),
                stride: stride.clone(),
            });
            stride = stride * d.clone();
        }
        dims.reverse();
        Lmad {
            offset: C::from(0),
            dims,
        }
    }

    /// Column-major index function `C(d1, ..., dq)` with zero offset:
    /// strides are prefix products.
    pub fn col_major(shape: &[C]) -> Lmad<C> {
        let mut dims = Vec::with_capacity(shape.len());
        let mut stride = C::from(1);
        for d in shape.iter() {
            dims.push(Dim {
                card: d.clone(),
                stride: stride.clone(),
            });
            stride = stride * d.clone();
        }
        Lmad {
            offset: C::from(0),
            dims,
        }
    }

    /// The logical shape (cardinalities).
    pub fn shape(&self) -> Vec<C> {
        self.dims.iter().map(|d| d.card.clone()).collect()
    }

    /// Total number of points (product of cardinalities).
    pub fn num_points(&self) -> C {
        self.dims
            .iter()
            .fold(C::from(1), |acc, d| acc * d.card.clone())
    }

    /// Apply the LMAD as an index function (paper §IV-A):
    /// `L(y1..yq) = offset + Σ yi·si`.
    #[inline]
    pub fn apply(&self, idx: &[C]) -> C {
        debug_assert_eq!(idx.len(), self.dims.len(), "rank mismatch in Lmad::apply");
        let mut out = self.offset.clone();
        for (y, d) in idx.iter().zip(&self.dims) {
            out = out + y.clone() * d.stride.clone();
        }
        out
    }

    /// Permute the dimensions (transposition is `permute(&[1, 0])`).
    pub fn permute(&self, perm: &[usize]) -> Lmad<C> {
        assert_eq!(perm.len(), self.dims.len());
        Lmad {
            offset: self.offset.clone(),
            dims: perm.iter().map(|&i| self.dims[i].clone()).collect(),
        }
    }

    /// Is this LMAD row-major contiguous (strides are exactly the suffix
    /// products of the cardinalities, innermost stride 1)? Offset may be
    /// arbitrary. Coefficient equality is canonical for polynomials.
    pub fn is_row_major_contiguous(&self) -> bool {
        let mut stride = C::from(1);
        for d in self.dims.iter().rev() {
            if d.stride != stride {
                return false;
            }
            stride = stride * d.card.clone();
        }
        true
    }
}

/// The prover-facing operations, which need symbols.
impl Lmad {
    pub fn new(offset: impl Into<Poly>, dims: Vec<Dim>) -> Lmad {
        Lmad {
            offset: offset.into(),
            dims,
        }
    }

    /// Substitute a variable throughout offset, cardinals and strides.
    pub fn subst(&self, s: Sym, value: &Poly) -> Lmad {
        self.map(|p| Some(p.subst(s, value)))
            .expect("substitution is total")
    }

    /// All variables appearing anywhere in the LMAD.
    pub fn vars(&self) -> Vec<Sym> {
        let mut vs = self.offset.vars();
        for d in &self.dims {
            vs.extend(d.card.vars());
            vs.extend(d.stride.vars());
        }
        vs.sort();
        vs.dedup();
        vs
    }

    pub fn contains_var(&self, s: Sym) -> bool {
        self.offset.contains_var(s)
            || self
                .dims
                .iter()
                .any(|d| d.card.contains_var(s) || d.stride.contains_var(s))
    }

    /// Normalize to an *abstract-set*-equivalent LMAD with provably
    /// non-negative strides (paper §V-C: "an LMAD can always be normalized
    /// to have only positive strides"): a dimension with stride `s < 0` is
    /// replaced by stride `-s` with the offset advanced to its last point.
    /// Dimensions whose stride sign cannot be determined make normalization
    /// fail (`None`), and clients fail conservatively.
    ///
    /// Also drops unit-cardinality and zero-stride dimensions, which do not
    /// change the point set (as long as cardinalities are positive, which
    /// the caller must ensure).
    pub fn normalize_set(&self, env: &Env) -> Option<Lmad> {
        let mut offset = self.offset.clone();
        let mut dims = Vec::new();
        for d in &self.dims {
            if env.prove_eq(&d.card, &Poly::constant(1)) || d.stride.is_zero() {
                continue; // single point on this dim; contributes index 0
            }
            if env.prove_nonneg(&d.stride) {
                dims.push(d.clone());
            } else if env.prove_nonneg(&(-(d.stride.clone()))) {
                // negative stride: flip
                offset = offset + (d.card.clone() - Poly::constant(1)) * d.stride.clone();
                dims.push(Dim {
                    card: d.card.clone(),
                    stride: -(d.stride.clone()),
                });
            } else {
                return None;
            }
        }
        Some(Lmad { offset, dims })
    }
}

impl<C: Debug> Debug for Lmad<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} + {{", self.offset)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d:?}")?;
        }
        write!(f, "}}")
    }
}
