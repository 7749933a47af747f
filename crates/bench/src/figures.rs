//! Figure artifacts: the paper's non-table figures regenerated as text —
//! access-pattern dumps (Figs. 2 and 10), the index-function chain of
//! Fig. 3, and the NW non-overlap derivation of Fig. 9.

use arraymem_lmad::overlap::non_overlap_traced;
use arraymem_lmad::{ConcreteLmad, Dim, IndexFn, Lmad, Transform, TripletSlice};
use arraymem_symbolic::{sym, Env, Poly};

fn v(name: &str) -> Poly {
    Poly::var(sym(name))
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// The points of the integer LMAD `offset + {(card : stride), ...}`.
fn points(offset: i64, dims: &[(i64, i64)]) -> Vec<i64> {
    let dims = dims.iter().map(|&(card, stride)| Dim { card, stride });
    ConcreteLmad {
        offset,
        dims: dims.collect(),
    }
    .points()
}

/// Fig. 2: the NW anti-diagonal access pattern, rendered on a small
/// blocked matrix. `W` cells are written, `v`/`h` are the read bars.
pub fn fig2_nw_pattern(q: i64, b: i64, diag: i64) -> String {
    let n = q * b + 1;
    let i = diag;
    let bs = n * b - b;
    let w = points(i * b + n + 1, &[(i + 1, bs), (b, n), (b, 1)]);
    let rv = points(i * b, &[(i + 1, bs), (b + 1, n)]);
    let rh = points(i * b + 1, &[(i + 1, bs), (b, 1)]);
    let mut grid = vec![b'.'; (n * n) as usize];
    for x in rv {
        grid[x as usize] = b'v';
    }
    for x in rh {
        grid[x as usize] = b'h';
    }
    for x in w {
        grid[x as usize] = b'W';
    }
    let mut s = format!(
        "Fig. 2 — NW anti-diagonal {diag} of a {q}x{q}-blocked matrix (b={b}, n={n}):\n\
         W = write set (green blocks), v/h = vertical/horizontal read bars\n"
    );
    for r in 0..n {
        for cc in 0..n {
            s.push(grid[(r * n + cc) as usize] as char);
        }
        s.push('\n');
    }
    s
}

/// Fig. 3: the index-function computation chain, printed step by step.
pub fn fig3_chain() -> String {
    let mut s = String::from("Fig. 3 — index function computations (no arrays manifested):\n");
    let as_ = IndexFn::row_major(&[c(64)]);
    s.push_str(&format!("  as = (0..63)            ixfn: {as_:?}\n"));
    let bs = as_
        .transform(&Transform::Reshape(vec![c(8), c(8)]))
        .unwrap();
    s.push_str(&format!("  bs = unflatten 8 8 as   ixfn: {bs:?}\n"));
    let cs = bs.transform(&Transform::Permute(vec![1, 0])).unwrap();
    s.push_str(&format!("  cs = transpose bs       ixfn: {cs:?}\n"));
    let ds = cs
        .transform(&Transform::Slice(vec![
            TripletSlice::range(c(1), c(2), c(2)),
            TripletSlice::range(c(4), c(4), c(1)),
        ]))
        .unwrap();
    s.push_str(&format!("  ds = cs[1:3:2, 4:8:1]   ixfn: {ds:?}\n"));
    let flat = ds.transform(&Transform::Reshape(vec![c(8)])).unwrap();
    let es = flat
        .transform(&Transform::Slice(vec![TripletSlice::range(
            c(2),
            c(6),
            c(1),
        )]))
        .unwrap();
    s.push_str(&format!("  es = (flatten ds)[2:]   ixfn: {es:?}\n"));
    let conc = es.map(Poly::as_const).unwrap();
    s.push_str(&format!(
        "  es[5] -> flat offset {} in the memory of as\n",
        conc.index(&[5])
    ));
    s
}

/// Fig. 9: the machine-checked non-overlap derivation for NW.
pub fn fig9_proof() -> String {
    let mut env = Env::new();
    env.define(sym("n"), v("q") * v("b") + c(1));
    env.assume_ge(sym("q"), 2);
    env.assume_ge(sym("b"), 2);
    env.assume_ge(sym("i"), 0);
    let w = Lmad::new(
        v("i") * v("b") + v("n") + c(1),
        vec![
            Dim::new(v("i") + c(1), v("n") * v("b") - v("b")),
            Dim::new(v("b"), v("n")),
            Dim::new(v("b"), c(1)),
        ],
    );
    let rvert = Lmad::new(
        v("i") * v("b"),
        vec![
            Dim::new(v("i") + c(1), v("n") * v("b") - v("b")),
            Dim::new(v("b") + c(1), v("n")),
        ],
    );
    let proof = non_overlap_traced(&w, &rvert, &env);
    let mut s =
        String::from("Fig. 9 — proving W ∩ Rvert = ∅ for NW (n = q·b+1, q ≥ 2, b ≥ 2, i ≥ 0):\n");
    for line in &proof.trace {
        s.push_str("  ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!("  VERDICT: disjoint = {}\n", proof.disjoint));
    s
}

/// Fig. 10: LUD and Hotspot access patterns on a small grid.
pub fn fig10_patterns() -> String {
    let mut s = String::from("Fig. 10a — LUD step k=1 on a 4x4-blocked matrix (b=2):\n");
    let (q, b) = (4i64, 2i64);
    let n = q * b;
    let k = 1i64;
    let mut grid = vec![b'.'; (n * n) as usize];
    let mut mark = |offset: i64, dims: &[(i64, i64)], ch: u8| {
        for x in points(offset, dims) {
            grid[x as usize] = ch;
        }
    };
    // Green diagonal, blue row perimeter, yellow column perimeter, red interior.
    let m = q - 1 - k;
    mark(k * b * n + k * b, &[(b, n), (b, 1)], b'G');
    mark(k * b * n + (k + 1) * b, &[(m, b), (b, n), (b, 1)], b'B');
    mark((k + 1) * b * n + k * b, &[(m, b * n), (b, n), (b, 1)], b'Y');
    mark(
        (k + 1) * b * n + (k + 1) * b,
        &[(m, b * n), (m, b), (b, n), (b, 1)],
        b'R',
    );
    for r in 0..n {
        for cc in 0..n {
            s.push(grid[(r * n + cc) as usize] as char);
        }
        s.push('\n');
    }
    s.push_str(
        "\nFig. 10b — Hotspot partition (T/B = boundary rows incl. corners, M = interior):\n",
    );
    let hn = 8;
    for r in 0..hn {
        for _ in 0..hn {
            s.push(if r == 0 {
                'T'
            } else if r == hn - 1 {
                'B'
            } else {
                'M'
            });
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_marks_disjoint_sets() {
        let s = fig2_nw_pattern(3, 2, 1);
        assert!(s.contains('W') && s.contains('v') && s.contains('h'));
    }

    #[test]
    fn fig3_reproduces_offset_59() {
        assert!(fig3_chain().contains("flat offset 59"));
    }

    #[test]
    fn fig9_proof_succeeds() {
        let s = fig9_proof();
        assert!(s.contains("VERDICT: disjoint = true"), "{s}");
        assert!(s.contains("splitting"));
    }

    #[test]
    fn fig10_renders() {
        let s = fig10_patterns();
        assert!(s.contains('G') && s.contains('R') && s.contains('Y') && s.contains('B'));
    }
}
