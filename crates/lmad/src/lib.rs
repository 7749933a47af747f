//! Linear Memory Access Descriptors (LMADs) and LMAD-based index functions.
//!
//! An LMAD (paper §II-B, eq. (1)) describes a set of linearized
//! uni-dimensional points with regular, quasi-affine structure:
//!
//! ```text
//! t + {(n1 : s1), ..., (nq : sq)}
//!   ≡ { t + i1·s1 + ... + iq·sq  |  0 ≤ ik < nk }
//! ```
//!
//! This crate provides the three uses the paper makes of LMADs:
//!
//! 1. **Generalized slicing** at the language level ([`Lmad`] used as a
//!    slice, §III-B).
//! 2. **Index functions** mapping array indexes to flat offsets in a memory
//!    block ([`IndexFn`], §IV), including O(1) change-of-layout
//!    transformations and multi-LMAD compositions for non-expressible
//!    reshapes (Fig. 3).
//! 3. **Index analysis**: aggregation of access summaries across loops
//!    (§II-B, §V-B) and the static non-overlap test (Fig. 8, §V-C).
//!
//! There is one LMAD family — [`Dim`], [`Lmad`], [`IndexFn`],
//! [`TripletSlice`], [`Transform`] — generic over its coefficient type.
//! The structure and the layout algebra (`row_major`, `apply`, `permute`,
//! `transform`, ...) are written once over ring operations. The
//! default instantiation, over [`arraymem_symbolic::Poly`], adds what the
//! prover needs (`subst`, `vars`, `normalize_set`, [`aggregate`],
//! [`overlap`]); the `i64` one ([`ConcreteLmad`], [`ConcreteIxFn`]) adds
//! the access path ([`concrete`]). `map` takes one to the other.

pub mod aggregate;
pub mod concrete;
pub mod interval;
mod ixfn;
mod lmad;
pub mod overlap;

pub use concrete::{footprint_check, ConcreteIxFn, ConcreteLmad, FootprintCheck};
pub use ixfn::{IndexFn, OpaqueIxFn, Transform, TripletSlice};
pub use lmad::{Dim, Lmad};

#[cfg(test)]
mod tests;
