//! Fixed micro-probes of layers that no workload isolates: the symbolic
//! prover, the LMAD non-overlap test, the store's free-list round trip
//! and the pool's dispatch cost. Each goes through the layer's public
//! functions only, and runs once per traced run whatever the workload.

use crate::catalog::mix;
use crate::envinfo::nproc;
use crate::metrics::Metrics;
use crate::sample::Reading;
use arraymem_exec::{pool, MemStore};
use arraymem_ir::ElemType;
use arraymem_lmad::overlap::non_overlap;
use arraymem_lmad::{Dim, Lmad};
use arraymem_symbolic::{sym, Env, Poly, Rng64};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 15;
const RANDOM_PAIRS: usize = 24;

fn v(name: &str) -> Poly {
    Poly::var(sym(name))
}

fn c(x: i64) -> Poly {
    Poly::constant(x)
}

/// The blocked-matrix environment of NW and LUD: `n = q·b + 1`, blocks
/// of at least 2, at least 2 of them.
fn blocked_env() -> Env {
    let mut env = Env::new();
    env.define(sym("n"), v("q") * v("b") + c(1));
    for (name, lo) in [("q", 2), ("b", 2), ("i", 0), ("k", 0), ("m", 1)] {
        env.assume_ge(sym(name), lo);
    }
    env
}

/// Pairs the optimizer meets on the dense workloads, then seeded
/// constant-shape pairs (most of which do overlap: the share proved is
/// a property of the query set, compared only for equality).
fn overlap_queries(seed: u64) -> Vec<(Lmad, Lmad)> {
    let (n, b, i, k, m) = (v("n"), v("b"), v("i"), v("k"), v("m"));
    let mut qs = vec![
        // NW, Fig. 9: the anti-diagonal's written blocks against the
        // vertical halo they read.
        (
            Lmad::new(
                i.clone() * b.clone() + n.clone() + c(1),
                vec![
                    Dim::new(i.clone() + c(1), n.clone() * b.clone() - b.clone()),
                    Dim::new(b.clone(), n.clone()),
                    Dim::new(b.clone(), c(1)),
                ],
            ),
            Lmad::new(
                i.clone() * b.clone(),
                vec![
                    Dim::new(i.clone() + c(1), n.clone() * b.clone() - b.clone()),
                    Dim::new(b.clone() + c(1), n.clone()),
                ],
            ),
        ),
        // LUD step k: diagonal block against the row perimeter.
        (
            Lmad::new(
                k.clone() * b.clone() * n.clone() + k.clone() * b.clone(),
                vec![Dim::new(b.clone(), n.clone()), Dim::new(b.clone(), c(1))],
            ),
            Lmad::new(
                k.clone() * b.clone() * n.clone() + (k.clone() + c(1)) * b.clone(),
                vec![
                    Dim::new(m.clone(), b.clone()),
                    Dim::new(b.clone(), n.clone()),
                    Dim::new(b.clone(), c(1)),
                ],
            ),
        ),
        // Hotspot: row i against row i+1, and evens against odds.
        (
            Lmad::new(i.clone() * n.clone(), vec![Dim::new(n.clone(), c(1))]),
            Lmad::new(
                (i.clone() + c(1)) * n.clone(),
                vec![Dim::new(n.clone(), c(1))],
            ),
        ),
        (
            Lmad::new(c(0), vec![Dim::new(n.clone(), c(2))]),
            Lmad::new(c(1), vec![Dim::new(n.clone(), c(2))]),
        ),
    ];
    let mut rng = Rng64::new(mix(seed, 0x0071_ad5e));
    let random = |rng: &mut Rng64| {
        let dims = (0..rng.i64_incl(1, 2))
            .map(|_| Dim::new(c(rng.i64_incl(1, 8)), c(rng.i64_incl(1, 16))))
            .collect();
        Lmad::new(c(rng.i64_incl(0, 63)), dims)
    };
    for _ in 0..RANDOM_PAIRS {
        qs.push((random(&mut rng), random(&mut rng)));
    }
    qs
}

fn prover_queries() -> Vec<(Poly, Poly)> {
    let (n, q, b, i) = (v("n"), v("q"), v("b"), v("i"));
    vec![
        (c(1), n.clone()),
        (b.clone(), n.clone()),
        (i.clone() * b.clone(), i.clone() * b.clone() + n.clone()),
        (q.clone() + b.clone(), q.clone() * b.clone()),
        (n.clone() * b.clone() - b.clone(), n.clone() * n.clone()),
        (c(2) * b.clone(), q.clone() * b.clone()),
        (n.clone(), b.clone()),
        (i.clone() + c(1), i),
    ]
}

/// Median over [`SAMPLES`] of `per_op(sample())`.
fn sampled(mut sample: impl FnMut() -> f64) -> Reading {
    sample(); // warm-up, discarded
    Reading::of(&(0..SAMPLES).map(|_| sample()).collect::<Vec<_>>())
}

pub fn run(seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let env = blocked_env();

    let queries = prover_queries();
    m.set(
        "symbolic.prove.us",
        sampled(|| {
            let t = Instant::now();
            for (a, b) in &queries {
                black_box(env.prove_le(a, b));
                black_box(env.prove_lt(a, b));
            }
            t.elapsed().as_secs_f64() * 1e6 / (2 * queries.len()) as f64
        }),
    );

    let pairs = overlap_queries(seed);
    let mut proved = 0;
    m.set(
        "lmad.non_overlap.us",
        sampled(|| {
            let t = Instant::now();
            proved = pairs
                .iter()
                .filter(|(a, b)| black_box(non_overlap(a, b, &env)))
                .count();
            t.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64
        }),
    );
    m.exact(
        "lmad.non_overlap.proved_share",
        proved as f64 / pairs.len() as f64,
    );

    let mut store = MemStore::new();
    const ROUND_TRIPS: usize = 2000;
    m.set(
        "exec.store.alloc_release.ns",
        sampled(|| {
            let t = Instant::now();
            for _ in 0..ROUND_TRIPS {
                let block = store.alloc(ElemType::F32, 4096);
                store.release(black_box(block));
            }
            t.elapsed().as_secs_f64() * 1e9 / ROUND_TRIPS as f64
        }),
    );

    const DISPATCHES: usize = 200;
    let threads = nproc();
    m.set(
        "exec.pool.dispatch.us",
        sampled(|| {
            let t = Instant::now();
            for _ in 0..DISPATCHES {
                black_box(pool::parallel_for(threads, 1 << 14, |i| {
                    black_box(i);
                }));
            }
            t.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64
        }),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_shapes_are_proved_and_the_share_repeats() {
        let env = blocked_env();
        let qs = overlap_queries(1);
        assert!(non_overlap(&qs[0].0, &qs[0].1, &env), "NW Fig. 9");
        assert!(non_overlap(&qs[3].0, &qs[3].1, &env), "evens vs odds");
        let a = run(5).get("lmad.non_overlap.proved_share").value;
        let b = run(5).get("lmad.non_overlap.proved_share").value;
        assert_eq!(a, b);
        assert!(a > 0.0 && a < 1.0);
    }
}
