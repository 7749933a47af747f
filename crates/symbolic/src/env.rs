//! Assumption environments and the sufficient-condition prover.

use crate::poly::Poly;
use crate::sym::Sym;
use std::collections::HashMap;

/// A set of assumptions about program variables, as collected by the client
/// analyses (e.g. `n = q*b + 1`, `q >= 2`, `b >= 1`, `0 <= i`).
///
/// The prover answers `true` only when the fact *provably* holds under the
/// assumptions; `false` means "could not prove", never "disproved".
#[derive(Clone, Default)]
pub struct Env {
    /// Rewrite rules `var -> definition`, applied to a fixpoint. Must be
    /// acyclic (later definitions may use earlier variables).
    equalities: Vec<(Sym, Poly)>,
    /// Constant lower bounds: `var >= lo`.
    lower: HashMap<Sym, i64>,
    /// Symbolic upper bounds: `var <= poly` (used by aggregation
    /// overestimates, not by the core positivity check).
    upper: HashMap<Sym, Poly>,
}

/// Rewrite-to-fixpoint iteration bound; equality chains deeper than this are
/// not expected in practice (the paper's symbol tables are shallow).
const MAX_REWRITE_ITERS: usize = 16;

impl Env {
    pub fn new() -> Self {
        Env::default()
    }

    /// Record `var = def`. Cyclic definitions are the caller's bug; rewriting
    /// is iteration-bounded so they cannot hang the prover, but they make it
    /// useless.
    pub fn define(&mut self, var: Sym, def: Poly) {
        self.equalities.push((var, def));
    }

    /// Record `var >= lo`. Multiple bounds keep the largest.
    pub fn assume_ge(&mut self, var: Sym, lo: i64) {
        let e = self.lower.entry(var).or_insert(lo);
        *e = (*e).max(lo);
    }

    /// Record `var <= up`.
    pub fn assume_le(&mut self, var: Sym, up: Poly) {
        self.upper.insert(var, up);
    }

    pub fn lower_bound(&self, var: Sym) -> Option<i64> {
        self.lower.get(&var).copied()
    }

    pub fn equalities(&self) -> &[(Sym, Poly)] {
        &self.equalities
    }

    /// Apply the equality rewrite rules to a fixpoint (bounded).
    pub fn rewrite(&self, p: &Poly) -> Poly {
        let mut cur = p.clone();
        for _ in 0..MAX_REWRITE_ITERS {
            let mut next = cur.clone();
            for (v, def) in &self.equalities {
                if next.contains_var(*v) {
                    next = next.subst(*v, def);
                }
            }
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }

    /// Shift every lower-bounded variable `x >= lo` by `x ↦ x' + lo` (the
    /// new `x'` is implicitly `>= 0`); succeeds when the resulting
    /// polynomial has only non-negative coefficients and every remaining
    /// variable is known non-negative. A sum of products of non-negative
    /// quantities with non-negative coefficients is non-negative.
    fn shift_check_nonneg(&self, p: &Poly) -> bool {
        let vars = p.vars();
        let mut shifts: Vec<(Sym, Poly)> = Vec::new();
        for v in &vars {
            match self.lower.get(v) {
                Some(&lo) => {
                    if lo != 0 {
                        shifts.push((*v, Poly::var(*v) + Poly::constant(lo)));
                    }
                }
                None => return false, // unbounded-below variable
            }
        }
        let shifted = p.subst_all(&shifts);
        // After shifting, any lower bound that was negative makes the
        // variable still potentially negative; require lo >= 0 originally
        // (shifted variable is >= 0 by construction when lo is its bound).
        let ok = shifted.terms().all(|(_, c)| c >= 0);
        ok
    }

    /// Prove `p >= 0` under the assumptions (sufficient condition).
    pub fn prove_nonneg(&self, p: &Poly) -> bool {
        if let Some(c) = p.as_const() {
            return c >= 0;
        }
        if self.shift_check_nonneg(p) {
            return true;
        }
        let rw = self.rewrite(p);
        if let Some(c) = rw.as_const() {
            return c >= 0;
        }
        if rw != *p && self.shift_check_nonneg(&rw) {
            return true;
        }
        // Last resort: replace variables that occur only linearly and only
        // with negative coefficients by their (rewritten) upper bounds.
        for target in [&rw, p] {
            if let Some(sub) = self.upper_substituted(target) {
                if sub != *target && self.shift_check_nonneg(&self.rewrite(&sub)) {
                    return true;
                }
            }
        }
        false
    }

    /// For each variable with a known upper bound that appears only with
    /// negative coefficients (and non-negative cofactors), substitute the
    /// bound: `x <= u`, `c < 0` and `rest >= 0` imply `c·x·rest >= c·u·rest`,
    /// so the substitution only lowers the polynomial — if the result is
    /// non-negative, so was the original.
    fn upper_substituted(&self, p: &Poly) -> Option<Poly> {
        let mut subs: Vec<(Sym, Poly)> = Vec::new();
        for v in p.vars() {
            let Some(u) = self.upper.get(&v) else {
                continue;
            };
            let mut substitutable = true;
            let mut occurs = false;
            for (m, c) in p.terms() {
                let pw = m.power(v);
                if pw == 0 {
                    continue;
                }
                occurs = true;
                // Soundness: `v` linear, coefficient negative, and every
                // other variable in the monomial non-negative.
                let cofactor_nonneg = m
                    .vars()
                    .filter(|w| *w != v)
                    .all(|w| self.lower.get(&w).is_some_and(|&lo| lo >= 0));
                if pw != 1 || c > 0 || !cofactor_nonneg {
                    substitutable = false;
                    break;
                }
            }
            if occurs && substitutable {
                subs.push((v, u.clone()));
            }
        }
        if subs.is_empty() {
            None
        } else {
            Some(p.subst_all(&subs))
        }
    }

    /// Prove `p > 0`.
    pub fn prove_pos(&self, p: &Poly) -> bool {
        self.prove_nonneg(&(p.clone() - Poly::constant(1)))
    }

    /// Prove `a <= b`.
    pub fn prove_le(&self, a: &Poly, b: &Poly) -> bool {
        self.prove_nonneg(&(b.clone() - a.clone()))
    }

    /// Prove `a < b`.
    pub fn prove_lt(&self, a: &Poly, b: &Poly) -> bool {
        self.prove_pos(&(b.clone() - a.clone()))
    }

    /// Prove `a = b` (by canonical-form equality after rewriting).
    pub fn prove_eq(&self, a: &Poly, b: &Poly) -> bool {
        if a == b {
            return true;
        }
        self.rewrite(a) == self.rewrite(b)
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Env {{")?;
        for (v, d) in &self.equalities {
            writeln!(f, "  {v} = {d:?}")?;
        }
        for (v, lo) in &self.lower {
            writeln!(f, "  {v} >= {lo}")?;
        }
        for (v, up) in &self.upper {
            writeln!(f, "  {v} <= {up:?}")?;
        }
        write!(f, "}}")
    }
}
