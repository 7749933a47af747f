//! The symbol interner is process-wide and never frees, so what a compile
//! interns is a leak per compile: a server compiling never-seen programs
//! pays it on every cold request. A recompile may intern the fresh names
//! of the memory it introduces and of its proofs — never per-statement
//! scratch (the short-circuit walk used to mint two `hole#N` per
//! statement × candidate: 12 of Hotspot's 24, 73 % on fuzz programs).
//!
//! One test in a binary of its own: nothing else may intern meanwhile.

use arraymem_symbolic::{sym_name, Sym};
use arraymem_workloads as w;

/// Symbols interned so far, read off the id in a fresh symbol's name.
fn interned() -> usize {
    let probe = sym_name(Sym::fresh("probe"));
    probe.rsplit('#').next().unwrap().parse().unwrap()
}

#[test]
fn a_recompile_interns_only_what_it_introduces() {
    let case = w::hotspot::case("128", 128, 8, 2);
    case.compile(true);
    let before = interned();
    case.compile(true);
    let by_compile = interned() - before - 1;
    assert!(
        by_compile <= 12,
        "recompiling interned {by_compile} symbols"
    );
}
