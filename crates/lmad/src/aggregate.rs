//! Aggregation of memory-access summaries across loops (paper §II-B, §V-B).
//!
//! Summaries are finite unions of LMADs, with a `Top` element for accesses
//! that cannot be represented (e.g. multi-LMAD index functions, footnote
//! 26). Aggregating an access across a loop of index `i ∈ [0, count)`
//! promotes the `i`-linear part of the offset to a fresh LMAD dimension
//! whose stride is the offset difference of consecutive iterations.

use crate::lmad::{Dim, Lmad};
use crate::overlap::non_overlap;
use arraymem_symbolic::{Env, Poly, Sym};

/// Cap on the number of LMADs a summary may hold before collapsing to
/// `Top`; keeps the pairwise non-overlap checks cheap.
const MAX_SUMMARY_LMADS: usize = 16;

/// Union of the instances of `l` for `var = 0 .. count-1`.
///
/// Returns `None` when the union is not LMAD-representable (conservative
/// clients must then use `Top`). Per footnote 8, a loop variable occurring
/// in a *cardinality* is over-approximated by substituting the bound that
/// maximizes it; occurrence in a *stride* is not representable.
pub fn aggregate(l: &Lmad, var: Sym, count: &Poly, env: &Env) -> Option<Lmad> {
    if count.contains_var(var) {
        return None;
    }
    for d in &l.dims {
        if d.stride.contains_var(var) {
            return None;
        }
    }
    // Split offset = base + var·k with k free of var (linearity check).
    let k = linear_coefficient(&l.offset, var)?;
    let base = l.offset.subst(var, &Poly::zero());
    // Over-approximate var occurrences in cardinalities.
    let hi = count.clone() - Poly::constant(1);
    let mut dims = Vec::with_capacity(l.dims.len() + 1);
    if !k.is_zero() {
        dims.push(Dim {
            card: count.clone(),
            stride: k,
        });
    }
    for d in &l.dims {
        let card = if d.card.contains_var(var) {
            let at_hi = d.card.subst(var, &hi);
            let at_lo = d.card.subst(var, &Poly::zero());
            if env.prove_le(&at_lo, &at_hi) {
                at_hi
            } else if env.prove_le(&at_hi, &at_lo) {
                at_lo
            } else {
                return None;
            }
        } else {
            d.card.clone()
        };
        dims.push(Dim {
            card,
            stride: d.stride.clone(),
        });
    }
    Some(Lmad { offset: base, dims })
}

/// `Some(k)` iff `p = base + var·k` with `k` free of `var` (i.e. `p` is
/// linear in `var`).
fn linear_coefficient(p: &Poly, var: Sym) -> Option<Poly> {
    let mut k = Poly::zero();
    for (m, c) in p.terms() {
        match m.power(var) {
            0 => {}
            1 => {
                let rest = m.try_div(&arraymem_symbolic::Monomial::var(var))?;
                if rest.power(var) > 0 {
                    return None;
                }
                k = k + Poly::from_terms([(rest, c)]);
            }
            _ => return None,
        }
    }
    if k.contains_var(var) {
        None
    } else {
        Some(k)
    }
}

/// A summary of memory locations: either a representable union of LMADs or
/// `Top` (all of memory — every overlap query answers "may overlap").
#[derive(Clone, Debug)]
pub enum Summary {
    Set(Vec<Lmad>),
    Top,
}

impl Summary {
    pub fn empty() -> Summary {
        Summary::Set(Vec::new())
    }

    pub fn top() -> Summary {
        Summary::Top
    }

    pub fn is_empty(&self) -> bool {
        matches!(self, Summary::Set(v) if v.is_empty())
    }

    pub fn is_top(&self) -> bool {
        matches!(self, Summary::Top)
    }

    /// Add one LMAD to the summary (set union).
    pub fn add(&mut self, l: Lmad) {
        match self {
            Summary::Top => {}
            Summary::Set(v) => {
                if v.len() >= MAX_SUMMARY_LMADS {
                    *self = Summary::Top;
                } else {
                    v.push(l);
                }
            }
        }
    }

    /// Set union of two summaries.
    pub fn union(&mut self, other: &Summary) {
        match other {
            Summary::Top => *self = Summary::Top,
            Summary::Set(v) => {
                for l in v {
                    self.add(l.clone());
                }
            }
        }
    }

    /// Aggregate every member across a loop variable; any failure collapses
    /// to `Top` (conservative).
    pub fn aggregate(&self, var: Sym, count: &Poly, env: &Env) -> Summary {
        match self {
            Summary::Top => Summary::Top,
            Summary::Set(v) => {
                let mut out = Summary::empty();
                for l in v {
                    match aggregate(l, var, count, env) {
                        Some(a) => out.add(a),
                        None => return Summary::Top,
                    }
                }
                out
            }
        }
    }

    /// Substitute a variable in all member LMADs.
    pub fn subst(&self, var: Sym, value: &Poly) -> Summary {
        match self {
            Summary::Top => Summary::Top,
            Summary::Set(v) => Summary::Set(v.iter().map(|l| l.subst(var, value)).collect()),
        }
    }

    /// Prove that two summaries are disjoint (pairwise non-overlap).
    pub fn disjoint_from(&self, other: &Summary, env: &Env) -> bool {
        match (self, other) {
            (Summary::Set(a), _) if a.is_empty() => true,
            (_, Summary::Set(b)) if b.is_empty() => true,
            (Summary::Set(a), Summary::Set(b)) => {
                a.iter().all(|x| b.iter().all(|y| non_overlap(x, y, env)))
            }
            _ => false,
        }
    }

    pub fn lmads(&self) -> Option<&[Lmad]> {
        match self {
            Summary::Top => None,
            Summary::Set(v) => Some(v),
        }
    }
}
