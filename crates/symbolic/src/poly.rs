//! Multivariate integer polynomials in canonical (expanded) form.

use crate::sym::Sym;
use std::collections::BTreeMap;
use std::ops::{Add, Mul, Neg, Sub};

/// A product of variables with positive integer powers, in canonical order.
/// The empty monomial is the constant `1`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Monomial(Vec<(Sym, u32)>);

impl Monomial {
    pub fn one() -> Self {
        Monomial(Vec::new())
    }

    pub fn var(s: Sym) -> Self {
        Monomial(vec![(s, 1)])
    }

    pub fn is_one(&self) -> bool {
        self.0.is_empty()
    }

    /// Total degree (sum of powers).
    pub fn degree(&self) -> u32 {
        self.0.iter().map(|&(_, p)| p).sum()
    }

    pub fn vars(&self) -> impl Iterator<Item = Sym> + '_ {
        self.0.iter().map(|&(s, _)| s)
    }

    pub fn factors(&self) -> &[(Sym, u32)] {
        &self.0
    }

    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut map: BTreeMap<Sym, u32> = BTreeMap::new();
        for &(s, p) in self.0.iter().chain(other.0.iter()) {
            *map.entry(s).or_insert(0) += p;
        }
        Monomial(map.into_iter().collect())
    }

    /// `self / other` when `other` divides `self` exactly.
    pub fn try_div(&self, other: &Monomial) -> Option<Monomial> {
        let mut map: BTreeMap<Sym, u32> = self.0.iter().copied().collect();
        for &(s, p) in &other.0 {
            let e = map.get_mut(&s)?;
            if *e < p {
                return None;
            }
            *e -= p;
            if *e == 0 {
                map.remove(&s);
            }
        }
        Some(Monomial(map.into_iter().collect()))
    }

    pub fn power(&self, s: Sym) -> u32 {
        self.0
            .iter()
            .find_map(|&(v, p)| (v == s).then_some(p))
            .unwrap_or(0)
    }
}

/// A polynomial with `i64` coefficients, stored as a map from monomials to
/// non-zero coefficients. The zero polynomial has an empty map.
///
/// Arithmetic keeps the representation canonical, so structural equality is
/// semantic equality.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    terms: BTreeMap<Monomial, i64>,
}

impl Poly {
    pub fn zero() -> Self {
        Poly::default()
    }

    pub fn constant(c: i64) -> Self {
        let mut p = Poly::zero();
        if c != 0 {
            p.terms.insert(Monomial::one(), c);
        }
        p
    }

    pub fn var(s: Sym) -> Self {
        let mut p = Poly::zero();
        p.terms.insert(Monomial::var(s), 1);
        p
    }

    /// Build from raw terms (coefficient, monomial); zero coefficients are
    /// dropped, duplicates summed.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, i64)>) -> Self {
        let mut p = Poly::zero();
        for (m, c) in terms {
            p.add_term(m, c);
        }
        p
    }

    fn add_term(&mut self, m: Monomial, c: i64) {
        if c == 0 {
            return;
        }
        let e = self.terms.entry(m).or_insert(0);
        *e += c;
        if *e == 0 {
            // Remove to keep canonical form; need the key back.
            let key = self
                .terms
                .iter()
                .find(|(_, &v)| v == 0)
                .map(|(k, _)| k.clone());
            if let Some(k) = key {
                self.terms.remove(&k);
            }
        }
    }

    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// `Some(c)` iff the polynomial is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            return Some(0);
        }
        if self.terms.len() == 1 {
            let (m, &c) = self.terms.iter().next().unwrap();
            if m.is_one() {
                return Some(c);
            }
        }
        None
    }

    /// `Some(s)` iff the polynomial is exactly the variable `s`.
    pub fn as_var(&self) -> Option<Sym> {
        if self.terms.len() == 1 {
            let (m, &c) = self.terms.iter().next().unwrap();
            if c == 1 && m.factors().len() == 1 && m.factors()[0].1 == 1 {
                return Some(m.factors()[0].0);
            }
        }
        None
    }

    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, i64)> {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    /// All distinct variables occurring in the polynomial.
    pub fn vars(&self) -> Vec<Sym> {
        let mut vs: Vec<Sym> = self.terms.keys().flat_map(|m| m.vars()).collect();
        vs.sort();
        vs.dedup();
        vs
    }

    pub fn contains_var(&self, s: Sym) -> bool {
        self.terms.keys().any(|m| m.power(s) > 0)
    }

    /// Total degree of the polynomial (0 for constants and zero).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(|m| m.degree()).max().unwrap_or(0)
    }

    /// Substitute `s := value` and re-expand.
    pub fn subst(&self, s: Sym, value: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (m, c) in self.terms() {
            let p = m.power(s);
            if p == 0 {
                out.add_term(m.clone(), c);
                continue;
            }
            // rest = m / s^p
            let mut rest: Vec<(Sym, u32)> = m
                .factors()
                .iter()
                .copied()
                .filter(|&(v, _)| v != s)
                .collect();
            rest.sort();
            let rest = Monomial(rest);
            let mut acc = Poly::constant(c) * Poly::from_terms([(rest, 1)]);
            for _ in 0..p {
                acc = acc * value.clone();
            }
            out = out + acc;
        }
        out
    }

    /// Substitute several variables simultaneously.
    pub fn subst_all(&self, map: &[(Sym, Poly)]) -> Poly {
        // Simultaneous substitution: expand each term against the map.
        let mut out = Poly::zero();
        for (m, c) in self.terms() {
            let mut acc = Poly::constant(c);
            for &(v, p) in m.factors() {
                let repl = map
                    .iter()
                    .find_map(|(s, q)| (*s == v).then(|| q.clone()))
                    .unwrap_or_else(|| Poly::var(v));
                for _ in 0..p {
                    acc = acc * repl.clone();
                }
            }
            out = out + acc;
        }
        out
    }

    /// Evaluate with a total assignment. Returns `None` if a variable is
    /// unbound or a step of the evaluation does not fit an `i64` (a
    /// wrapped value would be a wrong size, not an error).
    pub fn eval<F: Fn(Sym) -> Option<i64>>(&self, lookup: F) -> Option<i64> {
        let mut total: i64 = 0;
        for (m, c) in self.terms() {
            let mut v: i64 = c;
            for &(s, p) in m.factors() {
                let x = lookup(s)?;
                for _ in 0..p {
                    v = v.checked_mul(x)?;
                }
            }
            total = total.checked_add(v)?;
        }
        Some(total)
    }

    /// The "most complex" term: highest degree, then largest monomial, i.e.
    /// the term the non-overlap test distributes first (paper footnote 27).
    pub fn leading_term(&self) -> Option<(Monomial, i64)> {
        self.terms
            .iter()
            .max_by_key(|(m, _)| (m.degree(), (*m).clone()))
            .map(|(m, &c)| (m.clone(), c))
    }

    /// Try `self / divisor` yielding an exact polynomial quotient, for the
    /// common case where `divisor` is a single term. Returns `None` when the
    /// division is not exact.
    pub fn try_div_term(&self, dm: &Monomial, dc: i64) -> Option<Poly> {
        if dc == 0 {
            return None;
        }
        let mut out = Poly::zero();
        for (m, c) in self.terms() {
            if c % dc != 0 {
                return None;
            }
            let q = m.try_div(dm)?;
            out.add_term(q, c / dc);
        }
        Some(out)
    }

    /// Multiply by an integer scalar.
    pub fn scale(&self, k: i64) -> Poly {
        let mut out = Poly::zero();
        for (m, c) in self.terms() {
            out.add_term(m.clone(), c * k);
        }
        out
    }
}

impl Add for Poly {
    type Output = Poly;
    fn add(self, rhs: Poly) -> Poly {
        let mut out = self;
        for (m, c) in rhs.terms {
            out.add_term(m, c);
        }
        out
    }
}

impl Sub for Poly {
    type Output = Poly;
    fn sub(self, rhs: Poly) -> Poly {
        self + (-rhs)
    }
}

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        let mut out = Poly::zero();
        for (m, c) in self.terms {
            out.add_term(m, -c);
        }
        out
    }
}

impl Mul for Poly {
    type Output = Poly;
    fn mul(self, rhs: Poly) -> Poly {
        let mut out = Poly::zero();
        for (m1, c1) in self.terms() {
            for (m2, c2) in rhs.terms() {
                out.add_term(m1.mul(m2), c1 * c2);
            }
        }
        out
    }
}

impl From<i64> for Poly {
    fn from(c: i64) -> Poly {
        Poly::constant(c)
    }
}

impl From<Sym> for Poly {
    fn from(s: Sym) -> Poly {
        Poly::var(s)
    }
}

impl std::fmt::Debug for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        // Print highest-degree terms first for readability.
        let mut terms: Vec<_> = self.terms.iter().collect();
        terms.sort_by_key(|(m, _)| std::cmp::Reverse((m.degree(), (*m).clone())));
        for (m, c) in terms {
            if first {
                if *c < 0 {
                    write!(f, "-")?;
                }
                first = false;
            } else if *c < 0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let a = c.abs();
            if m.is_one() {
                write!(f, "{a}")?;
            } else {
                if a != 1 {
                    write!(f, "{a}*")?;
                }
                let mut firstv = true;
                for &(s, p) in m.factors() {
                    if !firstv {
                        write!(f, "*")?;
                    }
                    firstv = false;
                    if p == 1 {
                        write!(f, "{s}")?;
                    } else {
                        write!(f, "{s}^{p}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}
