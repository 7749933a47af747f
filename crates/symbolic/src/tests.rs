use crate::{sym, Env, Poly, Rng64, Sym};

fn v(name: &str) -> Poly {
    Poly::var(sym(name))
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

#[test]
fn poly_basic_arithmetic() {
    let n = v("n");
    let m = v("m");
    let p = (n.clone() + c(1)) * (m.clone() - c(1));
    // n*m - n + m - 1
    let q = n.clone() * m.clone() - n.clone() + m.clone() - c(1);
    assert_eq!(p, q);
    assert_eq!((n.clone() - n.clone()), Poly::zero());
    assert!((n.clone() - n).is_zero());
}

#[test]
fn poly_constants_and_vars() {
    assert_eq!(c(5).as_const(), Some(5));
    assert_eq!(Poly::zero().as_const(), Some(0));
    assert_eq!(v("x").as_const(), None);
    assert_eq!(v("x").as_var(), Some(sym("x")));
    assert_eq!((v("x") * c(2)).as_var(), None);
    assert_eq!((v("x") * v("y")).as_var(), None);
}

#[test]
fn poly_subst_expands() {
    // (q*b + 1) for n in n*n - n  ==>  (qb+1)^2 - (qb+1)
    let n = v("n");
    let p = n.clone() * n.clone() - n.clone();
    let def = v("q") * v("b") + c(1);
    let s = p.subst(sym("n"), &def);
    let expected = def.clone() * def.clone() - def;
    assert_eq!(s, expected);
}

#[test]
fn poly_subst_all_is_simultaneous() {
    // x -> y, y -> x must swap, not chain.
    let p = v("x") - v("y");
    let swapped = p.subst_all(&[(sym("x"), v("y")), (sym("y"), v("x"))]);
    assert_eq!(swapped, v("y") - v("x"));
}

#[test]
fn poly_try_div_term() {
    let p = v("n") * v("b") * c(6) + v("b") * c(2);
    let (m, _) = Poly::var(sym("b")).leading_term().unwrap();
    let q = p.try_div_term(&m, 2).unwrap();
    assert_eq!(q, v("n") * c(3) + c(1));
    // Not exact: dividing n + 1 by n fails.
    let (mn, _) = Poly::var(sym("n")).leading_term().unwrap();
    assert!((v("n") + c(1)).try_div_term(&mn, 1).is_none());
}

#[test]
fn poly_eval() {
    let p = v("n") * v("b") + c(1);
    let r = p.eval(|s| {
        if s == sym("n") {
            Some(7)
        } else if s == sym("b") {
            Some(3)
        } else {
            None
        }
    });
    assert_eq!(r, Some(22));
    assert_eq!(p.eval(|_| None), None);
    // A step that leaves `i64` has no value, rather than a wrapped one:
    // 2^32 · 2^32 wraps to 0, and 3 037 000 500² is just past `i64::MAX`.
    let square = v("n") * v("n");
    for n in [1i64 << 32, 3_037_000_500] {
        assert_eq!(square.eval(|_| Some(n)), None, "{n}");
    }
    assert_eq!(
        square.eval(|_| Some(3_037_000_499)),
        Some(3_037_000_499 * 3_037_000_499)
    );
    assert_eq!((square + c(i64::MAX)).eval(|_| Some(1)), None);
}

#[test]
fn leading_term_prefers_high_degree() {
    let p = v("n") * v("b") + v("n") * c(100) + c(5);
    let (m, coef) = p.leading_term().unwrap();
    assert_eq!(coef, 1);
    assert_eq!(m.degree(), 2);
}

#[test]
fn env_rewrite_fixpoint() {
    let mut env = Env::new();
    env.define(sym("n"), v("q") * v("b") + c(1));
    env.define(sym("q"), v("r") + c(2));
    let p = v("n");
    let rw = env.rewrite(&p);
    assert_eq!(rw, (v("r") + c(2)) * v("b") + c(1));
}

/// The actual inequalities needed by the paper's Fig. 9 NW derivation.
#[test]
fn env_proves_nw_inequalities() {
    let mut env = Env::new();
    env.define(sym("n"), v("q") * v("b") + c(1));
    env.assume_ge(sym("q"), 2);
    env.assume_ge(sym("b"), 2);
    env.assume_ge(sym("i"), 0);

    // strides positive: n > 0, n*b - b > 0
    assert!(env.prove_pos(&v("n")));
    assert!(env.prove_pos(&(v("n") * v("b") - v("b"))));
    // n > b  (dimension non-overlap: stride n vs u*1 = b)
    assert!(env.prove_lt(&v("b"), &v("n")));
    // n - 2b - 1 >= 0  (n > 2b)
    assert!(env.prove_nonneg(&(v("n") - v("b") * c(2) - c(1))));
    // n*b - b > 2b, i.e. q*b^2 - 2b - 1 >= 0 under q>=2, b>=2
    assert!(env.prove_pos(&(v("n") * v("b") - v("b") - v("b") * c(2))));
}

#[test]
fn env_cannot_prove_false_or_unknown() {
    let mut env = Env::new();
    env.assume_ge(sym("x"), 0);
    // x - 1 >= 0 is not implied by x >= 0.
    assert!(!env.prove_nonneg(&(v("x") - c(1))));
    // y is unconstrained.
    assert!(!env.prove_nonneg(&v("y")));
    // -x - 1 is definitely negative.
    assert!(!env.prove_nonneg(&(-(v("x")) - c(1))));
}

#[test]
fn env_upper_bound_substitution() {
    let mut env = Env::new();
    env.assume_ge(sym("i"), 0);
    env.assume_le(sym("i"), v("m") - c(1));
    env.assume_ge(sym("m"), 1);
    env.assume_ge(sym("n"), 0);
    // n + m - 1 - i >= 0 given i <= m - 1 and n >= 0.
    assert!(env.prove_nonneg(&(v("n") + v("m") - c(1) - v("i"))));
    // But m - 1 - i*i cannot be proven (i appears non-linearly).
    assert!(!env.prove_nonneg(&(v("m") - c(1) - v("i") * v("i"))));
}

#[test]
fn env_prove_eq_via_rewriting() {
    let mut env = Env::new();
    env.define(sym("n"), v("q") * v("b") + c(1));
    assert!(env.prove_eq(&(v("n") - c(1)), &(v("q") * v("b"))));
    assert!(!env.prove_eq(&v("n"), &v("q")));
}

// ---------------------------------------------------------------------
// Randomized properties (hand-rolled generators; seeds make every
// failure reproducible, and no third-party framework is needed for the
// offline build).
// ---------------------------------------------------------------------

/// Addition/multiplication on polynomials must agree with evaluation.
#[test]
fn prop_eval_homomorphism() {
    let mut r = Rng64::new(0xE7A1);
    for _ in 0..300 {
        let (a0, a1, a2) = (r.i64_in(-20, 20), r.i64_in(-20, 20), r.i64_in(-20, 20));
        let (b0, b1, b2) = (r.i64_in(-20, 20), r.i64_in(-20, 20), r.i64_in(-20, 20));
        let (x, y) = (r.i64_in(-50, 50), r.i64_in(-50, 50));
        let p = c(a0) + v("px") * c(a1) + v("py") * c(a2);
        let q = c(b0) + v("px") * c(b1) + v("px") * v("py") * c(b2);
        let lookup = |s: Sym| {
            if s == sym("px") {
                Some(x)
            } else if s == sym("py") {
                Some(y)
            } else {
                None
            }
        };
        let pv = p.eval(lookup).unwrap();
        let qv = q.eval(lookup).unwrap();
        assert_eq!((p.clone() + q.clone()).eval(lookup).unwrap(), pv + qv);
        assert_eq!((p.clone() - q.clone()).eval(lookup).unwrap(), pv - qv);
        assert_eq!((p.clone() * q.clone()).eval(lookup).unwrap(), pv * qv);
        assert_eq!((-p.clone()).eval(lookup).unwrap(), -pv);
    }
}

/// Substitution commutes with evaluation.
#[test]
fn prop_subst_eval() {
    let mut r = Rng64::new(0x5B57);
    for _ in 0..300 {
        let (a, b, xval) = (r.i64_in(-9, 9), r.i64_in(-9, 9), r.i64_in(-20, 20));
        let p = v("sx") * v("sx") * c(a) + v("sx") * c(b) + c(1);
        let repl = v("sy") + c(3);
        let s = p.subst(sym("sx"), &repl);
        let lookup = |sm: Sym| if sm == sym("sy") { Some(xval) } else { None };
        let direct = p
            .eval(|sm| {
                if sm == sym("sx") {
                    Some(xval + 3)
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(s.eval(lookup).unwrap(), direct);
    }
}

/// Soundness of the prover: whenever `prove_nonneg` succeeds, the
/// polynomial really is non-negative for all assignments satisfying the
/// assumptions (tested on sampled assignments).
#[test]
fn prop_prover_sound() {
    let mut r = Rng64::new(0x9047);
    for _ in 0..500 {
        let (c0, c1, c2) = (r.i64_in(-6, 6), r.i64_in(-6, 6), r.i64_in(-6, 6));
        let (lo_a, lo_b) = (r.i64_in(0, 4), r.i64_in(0, 4));
        let (a, b) = (r.i64_in(0, 12), r.i64_in(0, 12));
        let p = c(c0) + v("pa") * c(c1) + v("pa") * v("pb") * c(c2);
        let mut env = Env::new();
        env.assume_ge(sym("pa"), lo_a);
        env.assume_ge(sym("pb"), lo_b);
        if env.prove_nonneg(&p) {
            let av = lo_a + a;
            let bv = lo_b + b;
            let val = p
                .eval(|s| {
                    if s == sym("pa") {
                        Some(av)
                    } else if s == sym("pb") {
                        Some(bv)
                    } else {
                        None
                    }
                })
                .unwrap();
            assert!(val >= 0, "prover claimed nonneg but p({av},{bv}) = {val}");
        }
    }
}
