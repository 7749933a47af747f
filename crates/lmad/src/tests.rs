use crate::aggregate::{aggregate, Summary};
use crate::concrete::unrank;
use crate::overlap::soundness_oracle::to_symbolic;
use crate::overlap::{non_overlap, non_overlap_traced};
use crate::{ConcreteIxFn, ConcreteLmad, Dim, IndexFn, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{sym, Env, Poly, Rng64, Sym};

fn v(name: &str) -> Poly {
    Poly::var(sym(name))
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

fn dim(card: impl Into<Poly>, stride: impl Into<Poly>) -> Dim {
    Dim::new(card, stride)
}

/// The environment of the NW example: `n = q·b + 1`, `q ≥ 2`, `b ≥ 2`,
/// `0 ≤ i`. (The paper's Fig. 9 states `b ≥ 1`; the displayed derivation
/// actually needs `b ≥ 2` on the edge case — our test uses the assumptions
/// under which the derivation is valid.)
fn nw_env() -> Env {
    let mut env = Env::new();
    env.define(sym("n"), v("q") * v("b") + c(1));
    env.assume_ge(sym("q"), 2);
    env.assume_ge(sym("b"), 2);
    env.assume_ge(sym("i"), 0);
    env
}

/// NW write set W = i·b + n + 1 + {(i+1 : n·b−b), (b : n), (b : 1)} (§III-B).
fn nw_w() -> Lmad {
    Lmad::new(
        v("i") * v("b") + v("n") + c(1),
        vec![
            dim(v("i") + c(1), v("n") * v("b") - v("b")),
            dim(v("b"), v("n")),
            dim(v("b"), c(1)),
        ],
    )
}

/// NW vertical read bars Rvert = i·b + {(i+1 : n·b−b), (b+1 : n)}.
fn nw_rvert() -> Lmad {
    Lmad::new(
        v("i") * v("b"),
        vec![
            dim(v("i") + c(1), v("n") * v("b") - v("b")),
            dim(v("b") + c(1), v("n")),
        ],
    )
}

/// NW horizontal read bars Rhoriz = i·b + 1 + {(i+1 : n·b−b), (b : 1)}.
fn nw_rhoriz() -> Lmad {
    Lmad::new(
        v("i") * v("b") + c(1),
        vec![
            dim(v("i") + c(1), v("n") * v("b") - v("b")),
            dim(v("b"), c(1)),
        ],
    )
}

// ---------------------------------------------------------------------
// Basic LMAD behaviour (§II-B)
// ---------------------------------------------------------------------

#[test]
fn lmad_apply_is_affine() {
    let l = Lmad::new(c(3), vec![dim(v("n"), v("m")), dim(v("m"), c(1))]);
    let r = l.apply(&[v("x"), v("y")]);
    assert_eq!(r, c(3) + v("x") * v("m") + v("y"));
}

#[test]
fn row_major_col_major() {
    let r = Lmad::row_major(&[v("n"), v("m")]);
    assert_eq!(r.dims, vec![dim(v("n"), v("m")), dim(v("m"), c(1))]);
    let cmaj = Lmad::col_major(&[v("n"), v("m")]);
    assert_eq!(cmaj.dims, vec![dim(v("n"), c(1)), dim(v("m"), v("n"))]);
    assert!(r.is_row_major_contiguous());
    assert!(!cmaj.is_row_major_contiguous());
}

/// The aggregation example of §II-B: the flat write `A[t + i*m + j*k]`
/// under the `j` then `i` loops aggregates to `t + {(m : m), (n : k)}`.
#[test]
fn aggregation_example_from_paper() {
    let env = {
        let mut e = Env::new();
        e.assume_ge(sym("m"), 1);
        e.assume_ge(sym("n"), 1);
        e.assume_ge(sym("k"), 1);
        e.assume_ge(sym("i"), 0);
        e.assume_ge(sym("j"), 0);
        e
    };
    let w_ij = Lmad::new(v("t") + v("i") * v("m") + v("j") * v("k"), vec![]);
    let w_i = aggregate(&w_ij, sym("j"), &v("n"), &env).unwrap();
    assert_eq!(w_i.offset, v("t") + v("i") * v("m"));
    assert_eq!(w_i.dims, vec![dim(v("n"), v("k"))]);
    let w = aggregate(&w_i, sym("i"), &v("m"), &env).unwrap();
    assert_eq!(w.offset, v("t"));
    assert_eq!(w.dims, vec![dim(v("m"), v("m")), dim(v("n"), v("k"))]);
}

#[test]
fn aggregation_fails_on_stride_dependence() {
    let env = Env::new();
    let l = Lmad::new(v("i"), vec![dim(c(4), v("i"))]);
    assert!(aggregate(&l, sym("i"), &c(8), &env).is_none());
}

#[test]
fn aggregation_overestimates_cardinal() {
    // card = i+1 under i in [0, m): over-approximated at i = m-1.
    let mut env = Env::new();
    env.assume_ge(sym("m"), 1);
    let l = Lmad::new(v("i") * c(10), vec![dim(v("i") + c(1), c(1))]);
    let a = aggregate(&l, sym("i"), &v("m"), &env).unwrap();
    assert_eq!(a.dims[0], dim(v("m"), c(10)));
    assert_eq!(a.dims[1], dim(v("m"), c(1)));
}

#[test]
fn normalize_flips_negative_strides() {
    let mut env = Env::new();
    env.assume_ge(sym("n"), 1);
    // reversed 1-D array: n-1 + {(n : -1)}  ==set==  0 + {(n : 1)}
    let rev = Lmad::new(v("n") - c(1), vec![dim(v("n"), c(-1))]);
    let norm = rev.normalize_set(&env).unwrap();
    assert_eq!(norm.offset, Poly::zero());
    assert_eq!(norm.dims, vec![dim(v("n"), c(1))]);
}

// ---------------------------------------------------------------------
// Index functions & transformations (§IV, Fig. 3)
// ---------------------------------------------------------------------

/// Paper Fig. 3, end to end: each operation is O(1) on the index function
/// and the final composed chain maps es[5] to flat offset 59 in as's memory.
#[test]
fn fig3_index_fn_chain() {
    // let as = (0..63)              -- ixfn 0 + {(64:1)}
    let asn = IndexFn::row_major(&[c(64)]);
    assert_eq!(asn.logical(), &Lmad::new(c(0), vec![dim(c(64), c(1))]));
    // let bs = unflatten 8 8 as     -- ixfn 0 + {(8:8),(8:1)}
    let bs = asn
        .transform(&Transform::Reshape(vec![c(8), c(8)]))
        .unwrap();
    assert_eq!(
        bs.logical(),
        &Lmad::new(c(0), vec![dim(c(8), c(8)), dim(c(8), c(1))])
    );
    // let cs = transpose bs         -- ixfn 0 + {(8:1),(8:8)}
    let cs = bs.transform(&Transform::Permute(vec![1, 0])).unwrap();
    assert_eq!(
        cs.logical(),
        &Lmad::new(c(0), vec![dim(c(8), c(1)), dim(c(8), c(8))])
    );
    // let ds = cs[1:3:2, 4:8:1]     -- ixfn 1+4*8 + {(2:2),(4:8)}
    let ds = cs
        .transform(&Transform::Slice(vec![
            TripletSlice::range(c(1), c(2), c(2)),
            TripletSlice::range(c(4), c(4), c(1)),
        ]))
        .unwrap();
    assert_eq!(
        ds.logical(),
        &Lmad::new(c(33), vec![dim(c(2), c(2)), dim(c(4), c(8))])
    );
    // let es = (flatten ds)[2:]     -- L2 ∘ L1, L1 = 2+{(6:1)}, L2 = 33+{(2:2),(4:8)}
    let flat = ds.transform(&Transform::Reshape(vec![c(8)])).unwrap();
    let es = flat
        .transform(&Transform::Slice(vec![TripletSlice::range(
            c(2),
            c(6),
            c(1),
        )]))
        .unwrap();
    assert_eq!(es.lmads.len(), 2);
    assert_eq!(
        es.lmads[0],
        Lmad::new(c(33), vec![dim(c(2), c(2)), dim(c(4), c(8))])
    );
    assert_eq!(es.lmads[1], Lmad::new(c(2), vec![dim(c(6), c(1))]));
    // es[5]: L1(5) = 7; unrank 7 over (2,4) = (1,3); L2(1,3) = 33+2+24 = 59.
    let conc = es.map(|p| p.eval(|_| None)).unwrap();
    assert_eq!(conc.index(&[5]), 59);
}

#[test]
fn transpose_then_flatten_needs_two_lmads() {
    // Flattening a column-major (transposed) matrix is the paper's example
    // of a reshape not expressible as a single LMAD.
    let a = IndexFn::row_major(&[c(4), c(6)]);
    let t = a.transform(&Transform::Permute(vec![1, 0])).unwrap();
    let f = t.transform(&Transform::Reshape(vec![c(24)])).unwrap();
    assert_eq!(f.lmads.len(), 2);
    let conc = f.map(|p| p.eval(|_| None)).unwrap();
    // element (i) of flatten(transpose A) is A[i%4, i/4] = mem[(i%4)*6 + i/4]
    for i in 0..24 {
        assert_eq!(conc.index(&[i]), (i % 4) * 6 + i / 4);
    }
}

#[test]
fn flatten_row_major_is_single_lmad() {
    let a = IndexFn::row_major(&[c(4), c(6)]);
    let f = a.transform(&Transform::Reshape(vec![c(24)])).unwrap();
    assert_eq!(f.lmads.len(), 1);
    assert!(f.logical().is_row_major_contiguous());
}

#[test]
fn slice_column_from_matrix() {
    // §IV-B example: column i of a row-major n×m matrix via triplet slice
    // [0:n:1, i:1:0] gives LMAD i + {(n : m), (1 : 0)}.
    let a = IndexFn::row_major(&[v("n"), v("m")]);
    let col = a
        .transform(&Transform::Slice(vec![
            TripletSlice::range(c(0), v("n"), c(1)),
            TripletSlice::range(v("i"), c(1), c(0)),
        ]))
        .unwrap();
    assert_eq!(
        col.logical(),
        &Lmad::new(v("i"), vec![dim(v("n"), v("m")), dim(c(1), Poly::zero())])
    );
}

#[test]
fn reverse_is_self_inverse() {
    let a = IndexFn::row_major(&[c(10)]);
    let r = a.transform(&Transform::Reverse(0)).unwrap();
    let conc = r.map(|p| p.eval(|_| None)).unwrap();
    for i in 0..10 {
        assert_eq!(conc.index(&[i]), 9 - i);
    }
    let back = r.untransform(&Transform::Reverse(0), &[c(10)]).unwrap();
    let cb = back.map(|p| p.eval(|_| None)).unwrap();
    for i in 0..10 {
        assert_eq!(cb.index(&[i]), i);
    }
}

#[test]
fn untransform_permute() {
    // bs = transpose as; if bs is rebased to W, as must get W transposed
    // back.
    let w = IndexFn::from_lmad(Lmad::new(c(100), vec![dim(c(3), c(7)), dim(c(5), c(50))]));
    let as_ixfn = w
        .untransform(&Transform::Permute(vec![1, 0]), &[c(5), c(3)])
        .unwrap();
    assert_eq!(
        as_ixfn.logical(),
        &Lmad::new(c(100), vec![dim(c(5), c(50)), dim(c(3), c(7))])
    );
}

#[test]
fn untransform_slice_is_unsupported() {
    let w = IndexFn::row_major(&[c(4)]);
    assert!(w
        .untransform(
            &Transform::Slice(vec![TripletSlice::range(c(0), c(2), c(2))]),
            &[c(8)]
        )
        .is_none());
}

#[test]
fn lmad_slice_composes_through_flat_array() {
    // A 1-D array with offset 5 in its block; LMAD-slice the diagonal of
    // the logical n×n matrix view: i·(n+1) points.
    let base = IndexFn::from_lmad(Lmad::new(c(5), vec![dim(c(16), c(1))]));
    let diag = base
        .transform(&Transform::LmadSlice(Lmad::new(
            c(0),
            vec![dim(c(4), c(5))],
        )))
        .unwrap();
    assert_eq!(diag.lmads.len(), 1);
    assert_eq!(diag.logical(), &Lmad::new(c(5), vec![dim(c(4), c(5))]));
}

// ---------------------------------------------------------------------
// Non-overlap (§V-C, Fig. 8, Fig. 9)
// ---------------------------------------------------------------------

#[test]
fn disjoint_constant_intervals() {
    let mut env = Env::new();
    env.assume_ge(sym("z"), 0);
    let a = Lmad::new(c(0), vec![dim(c(10), c(1))]);
    let b = Lmad::new(c(10), vec![dim(c(10), c(1))]);
    assert!(non_overlap(&a, &b, &env));
    assert!(non_overlap(&b, &a, &env));
    let o = Lmad::new(c(9), vec![dim(c(10), c(1))]);
    assert!(!non_overlap(&a, &o, &env));
}

#[test]
fn disjoint_strided_even_odd() {
    let env = Env::new();
    // evens {0,2,..18} vs odds {1,3,..19}: 2-strided with offset diff 1.
    let e = Lmad::new(c(0), vec![dim(c(10), c(2))]);
    let o = Lmad::new(c(1), vec![dim(c(10), c(2))]);
    // Offset difference 1 cannot be placed inside the stride-2 dimension:
    // intervals [0..9]·2 + [0..0]·1 vs [0..9]·2 + [0..0]·1 with a +1 on one
    // side's unit interval; the unit dims differ ([1..1] vs [0..0]) but the
    // stride-2 dim overlaps [0..9], and the theorem requires dimension
    // non-overlap: stride 2 > 1·1 holds, so dims are clean and the unit
    // intervals are disjoint.
    assert!(non_overlap(&e, &o, &env));
}

#[test]
fn overlapping_same_lmad() {
    let mut env = Env::new();
    env.assume_ge(sym("n"), 1);
    let a = Lmad::new(c(0), vec![dim(v("n"), c(1))]);
    assert!(!non_overlap(&a, &a, &env));
}

#[test]
fn rows_vs_rows_disjoint_symbolic() {
    let mut env = Env::new();
    env.assume_ge(sym("m"), 1);
    env.assume_ge(sym("r"), 0);
    // row r vs row r+1 of an n×m row-major matrix.
    let row_r = Lmad::new(v("r") * v("m"), vec![dim(v("m"), c(1))]);
    let row_r1 = Lmad::new((v("r") + c(1)) * v("m"), vec![dim(v("m"), c(1))]);
    assert!(non_overlap(&row_r, &row_r1, &env));
}

/// The paper's flagship proof (Fig. 9): the NW write set does not overlap
/// the vertical read bars, requiring one dimension split.
#[test]
fn fig9_nw_write_vs_vertical_reads() {
    let env = nw_env();
    let proof = non_overlap_traced(&nw_w(), &nw_rvert(), &env);
    assert!(
        proof.disjoint,
        "NW W ∩ Rvert should be provably empty; trace:\n{}",
        proof.trace.join("\n")
    );
    // The derivation must have used the split heuristic.
    assert!(proof.trace.iter().any(|l| l.contains("splitting")));
}

#[test]
fn fig9_nw_write_vs_horizontal_reads() {
    let env = nw_env();
    let proof = non_overlap_traced(&nw_w(), &nw_rhoriz(), &env);
    assert!(
        proof.disjoint,
        "NW W ∩ Rhoriz should be provably empty; trace:\n{}",
        proof.trace.join("\n")
    );
}

/// Sanity: the NW read sets do overlap the *previous* write set (the
/// whole point of the dependence structure), so the test must not prove
/// them disjoint.
#[test]
fn nw_write_overlaps_itself() {
    let env = nw_env();
    assert!(!non_overlap(&nw_w(), &nw_w(), &env));
}

/// Exhaustive concrete validation of the NW non-overlap claim.
#[test]
fn nw_nonoverlap_concrete_validation() {
    for q in 2..5i64 {
        for b in 2..5i64 {
            let n = q * b + 1;
            for i in 0..q {
                let lookup = |s: Sym| {
                    if s == sym("n") {
                        Some(n)
                    } else if s == sym("q") {
                        Some(q)
                    } else if s == sym("b") {
                        Some(b)
                    } else if s == sym("i") {
                        Some(i)
                    } else {
                        None
                    }
                };
                let w: std::collections::HashSet<i64> = nw_w()
                    .map(|p| p.eval(lookup))
                    .unwrap()
                    .points()
                    .into_iter()
                    .collect();
                let rv = nw_rvert().map(|p| p.eval(lookup)).unwrap().points();
                let rh = nw_rhoriz().map(|p| p.eval(lookup)).unwrap().points();
                for p in rv.iter().chain(rh.iter()) {
                    assert!(
                        !w.contains(p),
                        "actual overlap at q={q} b={b} i={i} point {p}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------

#[test]
fn summary_union_and_top() {
    let mut s = Summary::empty();
    assert!(s.is_empty());
    s.add(Lmad::new(c(0), vec![dim(c(4), c(1))]));
    assert!(!s.is_empty());
    let mut t = Summary::top();
    t.union(&s);
    assert!(t.is_top());
    s.union(&Summary::top());
    assert!(s.is_top());
}

#[test]
fn summary_disjointness() {
    let env = Env::new();
    let mut a = Summary::empty();
    a.add(Lmad::new(c(0), vec![dim(c(4), c(1))]));
    a.add(Lmad::new(c(8), vec![dim(c(4), c(1))]));
    let mut b = Summary::empty();
    b.add(Lmad::new(c(4), vec![dim(c(4), c(1))]));
    assert!(a.disjoint_from(&b, &env));
    b.add(Lmad::new(c(9), vec![dim(c(2), c(1))]));
    assert!(!a.disjoint_from(&b, &env));
    assert!(Summary::empty().disjoint_from(&Summary::top(), &env));
    assert!(!Summary::top().disjoint_from(&b, &env));
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/// Generator: a small concrete LMAD with 1..=3 dims (hand-rolled; seeds
/// make failures reproducible and keep the offline build framework-free).
fn arb_lmad(r: &mut Rng64) -> Lmad {
    let off = r.i64_in(0, 30);
    let rank = r.i64_incl(1, 3);
    let dims = (0..rank)
        .map(|_| dim(c(r.i64_in(1, 5)), c(r.i64_in(-8, 9))))
        .collect();
    Lmad::new(c(off), dims)
}

/// Soundness of `non_overlap`: a `true` verdict implies the concrete
/// point sets are actually disjoint.
#[test]
fn prop_non_overlap_sound() {
    let mut r = Rng64::new(0x4F1A);
    for _ in 0..400 {
        let a = arb_lmad(&mut r);
        let b = arb_lmad(&mut r);
        let env = Env::new();
        if non_overlap(&a, &b, &env) {
            let pa: std::collections::HashSet<i64> = a
                .map(|p| p.eval(|_| None))
                .unwrap()
                .points()
                .into_iter()
                .collect();
            let pb = b.map(|p| p.eval(|_| None)).unwrap().points();
            for p in pb {
                assert!(
                    !pa.contains(&p),
                    "claimed disjoint, share {p}\n a={a:?}\n b={b:?}"
                );
            }
        }
    }
}

/// Normalization preserves the point set.
#[test]
fn prop_normalize_preserves_set() {
    let mut r = Rng64::new(0x2E9D);
    for _ in 0..400 {
        let a = arb_lmad(&mut r);
        let env = Env::new();
        if let Some(n) = a.normalize_set(&env) {
            let mut pa = a.map(|p| p.eval(|_| None)).unwrap().points();
            let mut pn = n.map(|p| p.eval(|_| None)).unwrap().points();
            pa.sort_unstable();
            pa.dedup();
            pn.sort_unstable();
            pn.dedup();
            assert_eq!(pa, pn, "normalize changed point set of {a:?}");
        }
    }
}

/// Aggregation over-approximates the concrete union.
#[test]
fn prop_aggregate_overapproximates() {
    let mut r = Rng64::new(0xA66E);
    for _ in 0..200 {
        let off_k = r.i64_in(1, 6);
        let card = r.i64_in(1, 4);
        let stride = r.i64_in(1, 4);
        let count = r.i64_in(1, 5);
        let mut env = Env::new();
        env.assume_ge(sym("agg_i"), 0);
        let l = Lmad::new(v("agg_i") * c(off_k), vec![dim(c(card), c(stride))]);
        let a = aggregate(&l, sym("agg_i"), &c(count), &env).unwrap();
        let union: std::collections::HashSet<i64> = (0..count)
            .flat_map(|i| {
                l.map(|p| p.eval(|s: Sym| (s == sym("agg_i")).then_some(i)))
                    .unwrap()
                    .points()
            })
            .collect();
        let agg: std::collections::HashSet<i64> = a
            .map(|p| p.eval(|_| None))
            .unwrap()
            .points()
            .into_iter()
            .collect();
        assert!(union.is_subset(&agg));
    }
}

/// Transformed index functions agree with the semantic transformation
/// on a dense array: permutation.
#[test]
fn prop_permute_semantics() {
    for rows in 1i64..6 {
        for cols in 1i64..6 {
            let a = IndexFn::row_major(&[c(rows), c(cols)]);
            let t = a.transform(&Transform::Permute(vec![1, 0])).unwrap();
            let ct = t.map(|p| p.eval(|_| None)).unwrap();
            for i in 0..cols {
                for j in 0..rows {
                    assert_eq!(ct.index(&[i, j]), j * cols + i);
                }
            }
        }
    }
}

/// Reshape-of-anything agrees with flat row-major traversal of the
/// logical elements.
#[test]
fn prop_reshape_semantics() {
    for rows in 1i64..5 {
        for cols in 1i64..5 {
            let a = IndexFn::row_major(&[c(rows), c(cols)]);
            let rev = a.transform(&Transform::Reverse(1)).unwrap();
            let f = rev
                .transform(&Transform::Reshape(vec![c(rows * cols)]))
                .unwrap();
            let cf = f.map(|p| p.eval(|_| None)).unwrap();
            let cr = rev.map(|p| p.eval(|_| None)).unwrap();
            for i in 0..rows * cols {
                assert_eq!(cf.index(&[i]), cr.index(&[i / cols, i % cols]));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The layout algebra is one algebra: `i64` against constant `Poly`
// ---------------------------------------------------------------------

/// A random integer LMAD of the given rank (cardinalities `1..=hi_card`,
/// strides of either sign) whose points all land in `[0, n)`; degenerates
/// to zero strides — or to an empty LMAD when `n == 0` — if nothing fits.
fn arb_lmad_within(r: &mut Rng64, rank: usize, hi_card: i64, n: i64) -> ConcreteLmad {
    for _ in 0..8 {
        let dims: Vec<Dim<i64>> = (0..rank)
            .map(|_| Dim {
                card: r.i64_incl(1, hi_card),
                stride: r.i64_incl(-3, 3),
            })
            .collect();
        let reach = |sign: i64| -> i64 {
            let far = |d: &Dim<i64>| (d.card - 1) * (d.stride * sign).max(0);
            dims.iter().map(far).sum()
        };
        let (below, above) = (reach(-1), reach(1));
        if below + above < n {
            let offset = r.i64_incl(below, n - 1 - above);
            return ConcreteLmad { offset, dims };
        }
    }
    let card = if n == 0 { 0 } else { r.i64_incl(1, hi_card) };
    ConcreteLmad {
        offset: if n == 0 { 0 } else { r.i64_in(0, n) },
        dims: vec![Dim { card, stride: 0 }; rank.max(1)],
    }
}

/// Rank 0–4, strides of either sign, now and then a zero cardinality, and
/// one time in four a two-LMAD chain (a strided outer LMAD with an inner
/// one picking points of its flat index space).
fn arb_concrete_ixfn(r: &mut Rng64) -> ConcreteIxFn {
    if r.chance(0.25) {
        let (outer_rank, inner_rank) = (2 + r.usize_in(2), 1 + r.usize_in(2));
        let outer = arb_lmad_within(r, outer_rank, 3, 1 << 20);
        let inner = arb_lmad_within(r, inner_rank, 3, outer.num_points());
        return ConcreteIxFn {
            lmads: vec![outer, inner],
        };
    }
    let rank = r.usize_in(5);
    let dims = (0..rank)
        .map(|_| Dim {
            card: if r.chance(0.1) { 0 } else { r.i64_incl(1, 4) },
            stride: r.i64_incl(-6, 6),
        })
        .collect();
    ConcreteIxFn::from_lmad(ConcreteLmad {
        offset: r.i64_incl(-5, 40),
        dims,
    })
}

/// A random shape with `n` elements.
fn arb_shape(r: &mut Rng64, n: i64) -> Vec<i64> {
    if n == 0 {
        let mut shape: Vec<i64> = (0..r.usize_in(3)).map(|_| r.i64_incl(1, 3)).collect();
        let at = r.usize_in(shape.len() + 1);
        shape.insert(at, 0);
        return shape;
    }
    let mut shape = Vec::new();
    let mut rest = n;
    for _ in 0..r.usize_in(3) {
        let divisors: Vec<i64> = (1..=rest).filter(|d| rest % d == 0).collect();
        let d = divisors[r.usize_in(divisors.len())];
        shape.push(d);
        rest /= d;
    }
    if rest != 1 {
        shape.push(rest);
    }
    shape
}

/// A random transform applicable to an array of shape `shape`, together
/// with what it means: the source logical index of a result logical index.
type IndexMap = Box<dyn Fn(&[i64]) -> Vec<i64>>;

fn arb_transform(r: &mut Rng64, shape: &[i64]) -> (Transform<i64>, IndexMap) {
    let rank = shape.len();
    let n: i64 = shape.iter().product();
    let shape = shape.to_vec();
    match r.usize_in(5) {
        0 => {
            let mut perm: Vec<usize> = (0..rank).collect();
            for k in (1..rank).rev() {
                perm.swap(k, r.usize_in(k + 1));
            }
            let p = perm.clone();
            let back = move |idx: &[i64]| {
                let mut src = vec![0; p.len()];
                for (k, &d) in p.iter().enumerate() {
                    src[d] = idx[k];
                }
                src
            };
            (Transform::Permute(perm), Box::new(back))
        }
        1 if rank > 0 => {
            let d = r.usize_in(rank);
            let back = move |idx: &[i64]| {
                let mut src = idx.to_vec();
                src[d] = shape[d] - 1 - idx[d];
                src
            };
            (Transform::Reverse(d), Box::new(back))
        }
        2 => {
            let slices: Vec<TripletSlice<i64>> = shape
                .iter()
                .map(|&d| {
                    if d > 0 && r.chance(0.3) {
                        return TripletSlice::Fix(r.i64_in(0, d));
                    }
                    let l = arb_lmad_within(r, 1, d.max(1), d);
                    TripletSlice::Range {
                        start: l.offset,
                        len: l.dims[0].card,
                        step: l.dims[0].stride,
                    }
                })
                .collect();
            let ts = slices.clone();
            let back = move |idx: &[i64]| {
                let mut kept = idx.iter();
                ts.iter()
                    .map(|t| match t {
                        TripletSlice::Fix(i) => *i,
                        TripletSlice::Range { start, step, .. } => {
                            start + kept.next().unwrap() * step
                        }
                    })
                    .collect()
            };
            (Transform::Slice(slices), Box::new(back))
        }
        3 => {
            let slice_rank = 1 + r.usize_in(2);
            let l = arb_lmad_within(r, slice_rank, 3, n);
            let picked = l.clone();
            let back = move |idx: &[i64]| {
                let mut src = vec![0; shape.len()];
                unrank(picked.apply(idx), &shape, &mut src);
                src
            };
            (Transform::LmadSlice(l), Box::new(back))
        }
        _ => {
            let new_shape = arb_shape(r, n);
            let to = new_shape.clone();
            let back = move |idx: &[i64]| {
                let flat = ConcreteLmad::row_major(&to).apply(idx);
                let mut src = vec![0; shape.len()];
                unrank(flat, &shape, &mut src);
                src
            };
            (Transform::Reshape(new_shape), Box::new(back))
        }
    }
}

/// Fig. 3 by hand: apply the last LMAD, unrank into the previous one's
/// index space, apply it, and so on down to the block offset.
fn naive_index(ixfn: &ConcreteIxFn, idx: &[i64]) -> i64 {
    let mut idx = idx.to_vec();
    for k in (0..ixfn.lmads.len()).rev() {
        let x = ixfn.lmads[k].apply(&idx);
        if k == 0 {
            return x;
        }
        idx = vec![0; ixfn.lmads[k - 1].rank()];
        unrank(x, &ixfn.lmads[k - 1].shape(), &mut idx);
    }
    unreachable!("an index function has at least one LMAD")
}

/// The `i64` instantiation of the layout algebra computes what the
/// constant-`Poly` instantiation computes — structurally, LMAD for LMAD —
/// and what it computes is right: after every step of a random transform
/// chain, the offsets of the transformed function are those of a naive
/// per-index walk of the *untransformed* one through the transforms'
/// meaning.
#[test]
fn prop_integer_algebra_is_the_polynomial_algebra() {
    let mut r = Rng64::new(0x1A3D_0C0E);
    let mut chained = 0;
    for case in 0..600 {
        let base = arb_concrete_ixfn(&mut r);
        let mut ints = base.clone();
        let mut polys: IndexFn = base.map(to_symbolic).unwrap();
        // The composed meaning of the transforms so far.
        let mut back: IndexMap = Box::new(|idx| idx.to_vec());
        for step in 0..r.i64_incl(1, 4) {
            let shape = ints.shape();
            let (tr, meaning) = arb_transform(&mut r, &shape);
            let what = format!("case {case} step {step}: {tr:?} of {ints:?}");
            ints = ints.transform(&tr).expect(&what);
            polys = polys.transform(&tr.map(to_symbolic).unwrap()).expect(&what);
            assert_eq!(polys.map(Poly::as_const), Some(ints.clone()), "{what}");
            let earlier = back;
            back = Box::new(move |idx| earlier(&meaning(idx)));

            let shape = ints.shape();
            let mut idx = vec![0; shape.len()];
            let walked: Vec<i64> = (0..ints.num_elems().max(0))
                .map(|flat| {
                    unrank(flat, &shape, &mut idx);
                    naive_index(&base, &back(&idx))
                })
                .collect();
            assert_eq!(ints.all_offsets(), walked, "{what}");
        }
        chained += (ints.lmads.len() > 1) as usize;
    }
    assert!(chained > 30, "only {chained} cases ended as LMAD chains");
}
