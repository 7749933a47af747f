//! The static LMAD non-overlap test (paper Fig. 8 and the Theorem of §V-C).
//!
//! Given two LMADs under an assumption environment, `non_overlap` returns
//! `true` only if their point sets are *provably* disjoint. The procedure:
//!
//! 1. normalize both LMADs to non-negative strides;
//! 2. convert the pair to two sums of strided intervals with *matching
//!    strides*, by positively distributing the terms of the offset
//!    difference across dimensions (footnote 27);
//! 3. if both sums have non-overlapping dimensions, look for one dimension
//!    whose two intervals are provably disjoint;
//! 4. otherwise split the interval that produced the overflow into "the
//!    last point" and "the rest", and recurse on all pairs.

use crate::interval::{Interval, SumOfInts};
use crate::lmad::Lmad;
use arraymem_symbolic::{Env, Poly};

/// Maximum recursive split depth; each level multiplies the pair count by
/// up to 4, and real programs need 1 (NW needs exactly one split).
const MAX_SPLIT_DEPTH: usize = 3;

/// Bound on offset-distribution iterations.
const MAX_DISTRIBUTE_ITERS: usize = 24;

/// Result of [`non_overlap_traced`]: the verdict plus a human-readable
/// derivation (used to regenerate the paper's Fig. 9).
pub struct OverlapProof {
    pub disjoint: bool,
    pub trace: Vec<String>,
}

/// Maximum number of nested case splits on variable boundaries. The
/// paper's SMT backend performs such splits implicitly; two levels cover
/// the disjunctions index analysis produces (e.g. `i = 0` vs `i ≥ 1`).
const MAX_CASE_SPLITS: usize = 2;

/// A proof derivation, its lines formatted only when it is recorded.
struct Trace(Option<Vec<String>>);

impl Trace {
    fn push(&mut self, line: impl FnOnce() -> String) {
        if let Some(lines) = &mut self.0 {
            lines.push(line());
        }
    }
}

/// Sufficient-condition test that two LMADs' point sets are disjoint.
pub fn non_overlap(l1: &Lmad, l2: &Lmad, env: &Env) -> bool {
    run_with_splits(l1, l2, env, &mut Trace(None), MAX_CASE_SPLITS)
}

/// As [`non_overlap`], also returning the proof derivation.
pub fn non_overlap_traced(l1: &Lmad, l2: &Lmad, env: &Env) -> OverlapProof {
    let mut trace = Trace(Some(Vec::new()));
    let disjoint = run_with_splits(l1, l2, env, &mut trace, MAX_CASE_SPLITS);
    let trace = trace.0.unwrap_or_default();
    OverlapProof { disjoint, trace }
}

/// Run the test; on failure, case-split on the boundary of a lower-bounded
/// variable (`v = lo` vs `v ≥ lo + 1`) and require both branches to prove.
fn run_with_splits(l1: &Lmad, l2: &Lmad, env: &Env, trace: &mut Trace, splits: usize) -> bool {
    if run(l1, l2, env, trace) {
        return true;
    }
    if splits == 0 {
        return false;
    }
    let mut vars: Vec<_> = l1.vars();
    vars.extend(l2.vars());
    vars.sort();
    vars.dedup();
    for v in vars {
        let Some(lo) = env.lower_bound(v) else {
            continue;
        };
        let mut env_eq = env.clone();
        env_eq.define(v, Poly::constant(lo));
        let mut env_gt = env.clone();
        env_gt.assume_ge(v, lo + 1);
        trace.push(|| format!("case split: {v} = {lo} vs {v} ≥ {}", lo + 1));
        if run_with_splits(l1, l2, &env_eq, trace, splits - 1)
            && run_with_splits(l1, l2, &env_gt, trace, splits - 1)
        {
            return true;
        }
    }
    false
}

fn run(l1: &Lmad, l2: &Lmad, env: &Env, trace: &mut Trace) -> bool {
    trace.push(|| format!("to prove: ({l1:?}) ∩ ({l2:?}) = ∅"));
    let (Some(n1), Some(n2)) = (l1.normalize_set(env), l2.normalize_set(env)) else {
        trace.push(|| "fail: cannot normalize strides to non-negative".into());
        return false;
    };
    // Degenerate cases: an empty set is disjoint from anything.
    for l in [&n1, &n2] {
        for d in &l.dims {
            if env.prove_nonneg(&(-(d.card.clone()))) {
                trace.push(|| "trivially disjoint: a cardinality is ≤ 0".into());
                return true;
            }
        }
    }
    let mut i1 = SumOfInts::from_normalized_dims(&n1.dims);
    let mut i2 = SumOfInts::from_normalized_dims(&n2.dims);
    i1.sort_by_env(env);
    i2.sort_by_env(env);
    SumOfInts::match_strides(&mut i1, &mut i2);
    i1.sort_by_env(env);
    i2.sort_by_env(env);
    let d = n1.offset.clone() - n2.offset.clone();
    if !distribute(d, &mut i1, Some(&mut i2), env) {
        trace.push(|| "fail: could not distribute the offset difference".into());
        return false;
    }
    if !i1.lowers_nonneg(env) || !i2.lowers_nonneg(env) {
        trace.push(|| "fail: a lower bound is not provably non-negative".into());
        return false;
    }
    trace.push(|| format!("rewritten as sums of intervals:\n  I1 = {i1}\n  I2 = {i2}"));
    check(&i1, &i2, env, MAX_SPLIT_DEPTH, trace)
}

/// Distribute the terms of `d` positively across the intervals of `i1`
/// (positive contributions) and `i2` (negative contributions, sign
/// flipped). When `i2` is `None` (re-distribution after a split), all
/// contributions go to `i1` regardless of sign and the caller re-checks
/// lower bounds.
fn distribute(mut d: Poly, i1: &mut SumOfInts, mut i2: Option<&mut SumOfInts>, env: &Env) -> bool {
    let mut prev_key: Option<(u32, arraymem_symbolic::Monomial)> = None;
    for _ in 0..MAX_DISTRIBUTE_ITERS {
        if d.is_zero() {
            return true;
        }
        // Remaining constant: absorb into a unit-stride interval.
        if let Some(c) = d.as_const() {
            return absorb(Poly::constant(c), c >= 0, i1, &mut i2);
        }
        let (m, c) = d.leading_term().expect("non-zero poly has a leading term");
        // Guard termination: the leading monomial must strictly decrease.
        let key = (m.degree(), m.clone());
        if let Some(pk) = &prev_key {
            if key >= *pk {
                return false;
            }
        }
        prev_key = Some(key);

        // Candidate strides, most complex first ("the interval whose
        // leading term of the stride is the best match", footnote 27).
        let mut strides: Vec<Poly> = i1.intervals.iter().map(|iv| iv.stride.clone()).collect();
        strides.sort_by(cmp_stride_desc);
        let mut matched = false;
        for s in &strides {
            let Some((ms, cs)) = s.leading_term() else {
                continue;
            };
            let Some(qm) = m.try_div(&ms) else {
                continue;
            };
            if cs == 0 || c % cs != 0 {
                continue;
            }
            let k_coef = c / cs;
            // The quotient monomial must be provably non-negative so the
            // contribution's sign is the coefficient's sign.
            if !qm.is_one()
                && !qm
                    .vars()
                    .all(|v| env.lower_bound(v).is_some_and(|lo| lo >= 0))
            {
                continue;
            }
            let k = Poly::from_terms([(qm, k_coef)]);
            d = d - s.clone() * k.clone();
            if !shift_side(k.clone(), k_coef >= 0, s, i1, &mut i2) {
                return false;
            }
            matched = true;
            break;
        }
        if !matched {
            // Absorb the whole remainder into a unit-stride interval if its
            // sign is provable.
            if env.prove_nonneg(&d) {
                return absorb(d, true, i1, &mut i2);
            }
            if env.prove_nonneg(&(-(d.clone()))) {
                return absorb(d, false, i1, &mut i2);
            }
            return false;
        }
    }
    false
}

fn cmp_stride_desc(a: &Poly, b: &Poly) -> std::cmp::Ordering {
    let ka = a
        .leading_term()
        .map(|(m, c)| (m.degree(), m, c))
        .unwrap_or((0, arraymem_symbolic::Monomial::one(), 0));
    let kb = b
        .leading_term()
        .map(|(m, c)| (m.degree(), m, c))
        .unwrap_or((0, arraymem_symbolic::Monomial::one(), 0));
    kb.cmp(&ka)
}

/// Add `k` (of known sign `nonneg`) to the interval of stride `s` on the
/// appropriate side.
fn shift_side(
    k: Poly,
    nonneg: bool,
    s: &Poly,
    i1: &mut SumOfInts,
    i2: &mut Option<&mut SumOfInts>,
) -> bool {
    match i2 {
        Some(other) if !nonneg => {
            let j = other.ensure_stride(s);
            other.intervals[j].shift(&(-k));
            // Keep stride sets matched.
            i1.ensure_stride(s);
            true
        }
        _ => {
            let j = i1.ensure_stride(s);
            i1.intervals[j].shift(&k);
            if let Some(other) = i2 {
                other.ensure_stride(s);
            }
            true
        }
    }
}

/// Absorb a residual `d` of known sign into a unit-stride interval.
fn absorb(d: Poly, nonneg: bool, i1: &mut SumOfInts, i2: &mut Option<&mut SumOfInts>) -> bool {
    if d.is_zero() {
        return true;
    }
    let one = Poly::constant(1);
    shift_side(if nonneg { d.clone() } else { d }, nonneg, &one, i1, i2)
}

fn check(i1: &SumOfInts, i2: &SumOfInts, env: &Env, depth: usize, trace: &mut Trace) -> bool {
    let r1 = i1.dims_nonoverlapping(env);
    let r2 = i2.dims_nonoverlapping(env);
    if r1.is_ok() && r2.is_ok() {
        // Theorem: one provably-disjoint dimension suffices.
        debug_assert_eq!(i1.intervals.len(), i2.intervals.len());
        for (a, b) in i1.intervals.iter().zip(&i2.intervals) {
            if env.prove_lt(&a.hi, &b.lo) || env.prove_lt(&b.hi, &a.lo) {
                trace.push(|| {
                    format!(
                        "disjoint on stride ({:?}): [{:?}..{:?}] vs [{:?}..{:?}]",
                        a.stride, a.lo, a.hi, b.lo, b.hi
                    )
                });
                return true;
            }
        }
        trace.push(|| "fail: all dimensions clean but no disjoint interval pair".into());
        return false;
    }
    if depth == 0 {
        trace.push(|| "fail: split depth exhausted".into());
        return false;
    }
    let Some(v1) = split_variants(i1, r1, env, trace) else {
        trace.push(|| "fail: cannot split I1".into());
        return false;
    };
    let Some(v2) = split_variants(i2, r2, env, trace) else {
        trace.push(|| "fail: cannot split I2".into());
        return false;
    };
    for a in &v1 {
        for b in &v2 {
            // Splits can unbalance the stride sets; re-match before
            // recursing. Matching inserts padding intervals by the
            // *syntactic* stride key, which can break the provably
            // ascending order `dims_nonoverlapping` relies on — restore
            // it under the env, exactly as `run` does after its match.
            let mut a = a.clone();
            let mut b = b.clone();
            SumOfInts::match_strides(&mut a, &mut b);
            a.sort_by_env(env);
            b.sort_by_env(env);
            if !check(&a, &b, env, depth - 1, trace) {
                return false;
            }
        }
    }
    true
}

/// Split an overlapping dimension into two sums: "the rest" (`[l..u-1]`)
/// and "the last point" (`u`, folded into the offset and re-distributed).
/// A clean sum is returned unchanged.
fn split_variants(
    i: &SumOfInts,
    r: Result<(), usize>,
    env: &Env,
    trace: &mut Trace,
) -> Option<Vec<SumOfInts>> {
    let viol = match r {
        Ok(()) => return Some(vec![i.clone()]),
        Err(v) => v,
    };
    // Split the interval below the violation with the largest reach
    // (hi·stride), i.e. the one that "produced the overflow".
    let j = (0..viol).max_by(|&a, &b| {
        cmp_stride_desc(
            &(i.intervals[b].hi.clone() * i.intervals[b].stride.clone()),
            &(i.intervals[a].hi.clone() * i.intervals[a].stride.clone()),
        )
    })?;
    let iv: &Interval = &i.intervals[j];
    trace.push(|| {
        format!(
            "overlapping dimensions: stride ({:?}) ≯ reach; splitting [{:?}..{:?}]·({:?})",
            i.intervals[viol].stride, iv.lo, iv.hi, iv.stride
        )
    });
    // Variant A: drop the last point.
    let mut a = i.clone();
    a.intervals[j].hi = a.intervals[j].hi.clone() - Poly::constant(1);
    if !env.prove_le(&a.intervals[j].lo, &a.intervals[j].hi) {
        return None;
    }
    // Variant B: only the last point; fold `hi·stride` into the offset and
    // re-distribute it across the remaining intervals.
    let mut b = i.clone();
    let extra = b.intervals[j].hi.clone() * b.intervals[j].stride.clone();
    b.intervals[j].lo = Poly::zero();
    b.intervals[j].hi = Poly::zero();
    if !distribute(extra, &mut b, None, env) {
        return None;
    }
    if !b.lowers_nonneg(env) {
        return None;
    }
    trace.push(|| format!("  rest: {a}\n  last: {b}"));
    Some(vec![a, b])
}

#[cfg(test)]
pub(crate) mod soundness_oracle {
    //! Randomized soundness oracle: the symbolic test may answer "cannot
    //! prove" for disjoint footprints (it is deliberately incomplete), but
    //! it must never answer "disjoint" for footprints that intersect.

    use super::*;
    use crate::concrete::{footprint_check, ConcreteLmad, FootprintCheck};
    use crate::lmad::Dim;
    use arraymem_symbolic::Rng64;

    fn random_concrete(rng: &mut Rng64) -> ConcreteLmad {
        let rank = rng.i64_incl(1, 3) as usize;
        let dims = (0..rank)
            .map(|_| Dim {
                card: rng.i64_incl(1, 6),
                stride: rng.i64_incl(-9, 9),
            })
            .collect();
        ConcreteLmad {
            offset: rng.i64_incl(0, 30),
            dims,
        }
    }

    /// The embedding of a number as a constant polynomial, in the shape
    /// `map` takes: `l.map(to_symbolic)` is the constant-`Poly` twin of an
    /// integer LMAD, index function or transform.
    pub(crate) fn to_symbolic(c: &i64) -> Option<Poly> {
        Some(Poly::constant(*c))
    }

    /// A sampled assumption environment together with a concrete variable
    /// assignment that satisfies every assumption. Ground truth concretizes
    /// under the assignment; the symbolic test only sees the env, so any
    /// "disjoint" verdict must hold for this assignment in particular.
    struct Scenario {
        env: Env,
        vars: Vec<(arraymem_symbolic::Sym, i64)>,
    }

    fn random_scenario(rng: &mut Rng64) -> Scenario {
        let n = rng.i64_incl(1, 3) as usize;
        let mut env = Env::default();
        let mut vars = Vec::with_capacity(n);
        for _ in 0..n {
            let v = arraymem_symbolic::Sym::fresh("o");
            let x = rng.i64_incl(1, 6);
            // Always lower-bounded (the case-split machinery keys off
            // lower bounds); sometimes tight, sometimes slack.
            env.assume_ge(v, rng.i64_incl(0, x));
            if rng.chance(0.4) {
                env.assume_le(v, Poly::constant(rng.i64_incl(x, x + 4)));
            }
            if rng.chance(0.2) {
                env.define(v, Poly::constant(x));
            }
            vars.push((v, x));
        }
        Scenario { env, vars }
    }

    /// A small polynomial over the scenario's variables whose concrete
    /// value under the assignment lands in `[lo, hi]`.
    fn random_poly(rng: &mut Rng64, sc: &Scenario, lo: i64, hi: i64) -> Poly {
        loop {
            let (v, x) = sc.vars[rng.usize_in(sc.vars.len())];
            let (p, val) = match rng.usize_in(4) {
                0 => {
                    let c = rng.i64_incl(lo, hi);
                    (Poly::constant(c), c)
                }
                1 => (Poly::var(v), x),
                2 => {
                    let c = rng.i64_incl(-3, 3);
                    (Poly::var(v) + Poly::constant(c), x + c)
                }
                _ => {
                    let k = rng.i64_incl(-2, 3);
                    let c = rng.i64_incl(-2, 4);
                    (Poly::var(v).scale(k) + Poly::constant(c), k * x + c)
                }
            };
            if (lo..=hi).contains(&val) {
                return p;
            }
        }
    }

    fn random_symbolic(rng: &mut Rng64, sc: &Scenario) -> Lmad {
        let rank = rng.i64_incl(1, 3) as usize;
        let dims = (0..rank)
            .map(|_| {
                let card = random_poly(rng, sc, 1, 6);
                let stride = random_poly(rng, sc, -9, 9);
                Dim::new(card, stride)
            })
            .collect();
        Lmad::new(random_poly(rng, sc, 0, 30), dims)
    }

    /// As [`symbolic_disjoint_implies_concrete_disjoint`], but over LMADs
    /// with symbolic offsets, cardinalities and strides under a random
    /// assumption environment — this drives the case-split path
    /// (`run_with_splits`) and the prover-backed stride sort, which
    /// constant LMADs under an empty env never reach.
    #[test]
    fn symbolic_env_disjoint_implies_concrete_disjoint() {
        let iters = if std::env::var("ARRAYMEM_SLOW").ok().as_deref() == Some("1") {
            20_000
        } else {
            4_000
        };
        let mut rng = Rng64::new(0x5EED0AC1);
        let mut truly_disjoint = 0u64;
        let mut proved = 0u64;
        for i in 0..iters {
            let sc = random_scenario(&mut rng);
            let (la, lb) = (
                random_symbolic(&mut rng, &sc),
                random_symbolic(&mut rng, &sc),
            );
            let lookup = |s| sc.vars.iter().find(|&&(v, _)| v == s).map(|&(_, x)| x);
            let (ca, cb) = (
                la.map(|p| p.eval(lookup)).expect("closed under assignment"),
                lb.map(|p| p.eval(lookup)).expect("closed under assignment"),
            );
            let really = match footprint_check(&ca, &cb, 1 << 16) {
                FootprintCheck::Disjoint => true,
                FootprintCheck::Overlap(_) => false,
                FootprintCheck::TooLarge => continue,
            };
            let symbolic = non_overlap(&la, &lb, &sc.env);
            assert!(
                really || !symbolic,
                "iteration {i}: symbolic test claims disjoint but footprints \
                 intersect under a satisfying assignment\n  a = {la:?}\n  b = {lb:?}\n  \
                 env = {:?}\n  assignment: {:?}\n  a@ = {ca:?}\n  b@ = {cb:?}",
                sc.env,
                sc.vars,
            );
            if really {
                truly_disjoint += 1;
                if symbolic {
                    proved += 1;
                }
            }
        }
        eprintln!(
            "symbolic overlap oracle: {proved}/{truly_disjoint} truly-disjoint pairs \
             proved ({:.1}% complete)",
            100.0 * proved as f64 / truly_disjoint.max(1) as f64
        );
        assert!(truly_disjoint > 0, "oracle generated no disjoint pairs");
    }

    #[test]
    fn symbolic_disjoint_implies_concrete_disjoint() {
        let iters = if std::env::var("ARRAYMEM_SLOW").ok().as_deref() == Some("1") {
            20_000
        } else {
            3_000
        };
        let mut rng = Rng64::new(0x0AC1E5);
        let env = Env::default();
        let mut truly_disjoint = 0u64;
        let mut proved = 0u64;
        for i in 0..iters {
            let (ca, cb) = (random_concrete(&mut rng), random_concrete(&mut rng));
            let really = match footprint_check(&ca, &cb, 1 << 16) {
                FootprintCheck::Disjoint => true,
                FootprintCheck::Overlap(_) => false,
                FootprintCheck::TooLarge => continue,
            };
            let symbolic = non_overlap(
                &ca.map(to_symbolic).unwrap(),
                &cb.map(to_symbolic).unwrap(),
                &env,
            );
            assert!(
                really || !symbolic,
                "iteration {i}: symbolic test claims disjoint but footprints \
                 intersect\n  a = {ca:?}\n  b = {cb:?}"
            );
            if really {
                truly_disjoint += 1;
                if symbolic {
                    proved += 1;
                }
            }
        }
        // Completeness is logged, not asserted (the test is a sufficient
        // condition); soundness is the assert above.
        eprintln!(
            "overlap oracle: {proved}/{truly_disjoint} truly-disjoint pairs proved \
             ({:.1}% complete)",
            100.0 * proved as f64 / truly_disjoint.max(1) as f64
        );
        assert!(truly_disjoint > 0, "oracle generated no disjoint pairs");
    }
}

#[cfg(test)]
mod sort_regression {
    //! Regression for the post-split recursion of [`check`]: after
    //! `match_strides` the sums must be re-sorted under the env (as `run`
    //! does), because `dims_nonoverlapping` relies on provably ascending
    //! stride order and the syntactic `stride_key` order can differ from
    //! the env-proved one.

    use super::*;
    use arraymem_symbolic::Sym;

    /// A pair whose env-proved stride order (`b` before `n`, since the env
    /// defines `n = b²`) is the *reverse* of the syntactic `stride_key`
    /// order (`n` interned first, so `Monomial(n) < Monomial(b)`). The
    /// outer sums are listed syntactically — the state
    /// `from_normalized_dims` produces — so the first interval pair that
    /// needs a split ([0..1]·n) only proves once the recursion re-sorts:
    /// without the `sort_by_env` after the recursion's `match_strides`,
    /// the "last point" variant `[1..1]·n + [0..b-2]·b` is stuck in
    /// descending order, `dims_nonoverlapping` keeps failing, and the
    /// (truly disjoint) pair is rejected.
    #[test]
    fn post_split_recursion_resorts_under_env() {
        // Intern `n` before `b`: syntactic order puts `n` first.
        let sn = Sym::fresh("n");
        let sb = Sym::fresh("b");
        let n = Poly::var(sn);
        let b = Poly::var(sb);
        let mut env = Env::default();
        env.define(sn, b.clone() * b.clone()); // n = b²
        env.assume_ge(sb, 3);
        // Env-proved order is b ≤ n, the reverse of the syntactic key.
        assert!(env.prove_le(&b, &n) && !env.prove_le(&n, &b));

        let iv = |lo: Poly, hi: Poly, stride: &Poly| Interval {
            lo,
            hi,
            stride: stride.clone(),
        };
        // I1 = [0..1]·n + [0..b-2]·b, listed in syntactic order.
        let i1 = SumOfInts {
            intervals: vec![
                iv(Poly::zero(), Poly::constant(1), &n),
                iv(Poly::zero(), b.clone() - Poly::constant(2), &b),
            ],
        };
        // I2 = [0..0]·n + [b-1..b-1]·b: the single point (b-1)·b, wedged
        // between I1's two b-runs ({y·b} and {b² + y·b}, y ≤ b-2).
        let i2 = SumOfInts {
            intervals: vec![
                iv(Poly::zero(), Poly::zero(), &n),
                iv(
                    b.clone() - Poly::constant(1),
                    b.clone() - Poly::constant(1),
                    &b,
                ),
            ],
        };
        // Ground truth at b = 4 (n = 16): disjoint.
        let lookup = |s| match s {
            s if s == sb => Some(4i64),
            s if s == sn => Some(16i64),
            _ => None,
        };
        let p1 = i1.eval_points(&lookup).unwrap();
        let p2 = i2.eval_points(&lookup).unwrap();
        assert!(p1.iter().all(|p| !p2.contains(p)), "sets must be disjoint");

        let mut trace = Trace(Some(Vec::new()));
        assert!(
            check(&i1, &i2, &env, MAX_SPLIT_DEPTH, &mut trace),
            "disjoint pair rejected; the split recursion lost the \
             env-sorted stride order:\n{}",
            trace.0.unwrap_or_default().join("\n")
        );
    }
}
