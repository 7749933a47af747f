//! The programs the workloads are made of: the ten workload cases at
//! their full and quick datasets, the seeded fuzz programs and the
//! benchmark's own source files.

use arraymem_exec::InputValue;
use arraymem_fuzz::{build_program, random_ops};
use arraymem_ir::Program;
use arraymem_workloads as w;
use arraymem_workloads::Case;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The datasets named in `BENCHMARK.json`'s workloads.
    Full,
    /// The `tables --quick` datasets: ~1 ms runs for the server mix,
    /// checked mode and `--smoke`.
    Quick,
}

pub struct ProgramSpec {
    pub name: &'static str,
    pub build: fn(Size) -> Case,
    /// The IR builder alone, without data generation (`ir.build.us`).
    pub ir: fn() -> Program,
    /// Iterations of the program's scalar pc-loop (full, quick), where
    /// it has one: the divisor of `exec.vm.scalar_loop.ns_per_iter`.
    pub loop_items: (u64, u64),
}

const fn spec(name: &'static str, build: fn(Size) -> Case, ir: fn() -> Program) -> ProgramSpec {
    ProgramSpec {
        name,
        build,
        ir,
        loop_items: (0, 0),
    }
}

const HISTOGRAM: ProgramSpec = ProgramSpec {
    name: "histogram",
    build: histogram,
    ir: || w::irregular::histogram_program().0,
    loop_items: (100_000, 1_000),
};

fn hotspot(s: Size) -> Case {
    match s {
        Size::Full => w::hotspot::case("1024", 1024, 16, 1),
        Size::Quick => w::hotspot::case("128", 128, 8, 1),
    }
}
fn lbm(s: Size) -> Case {
    match s {
        Size::Full => w::lbm::case("long", (32, 32, 16), 30, 1),
        Size::Quick => w::lbm::case("short", (16, 16, 8), 3, 1),
    }
}
fn optionpricing(s: Size) -> Case {
    match s {
        Size::Full => w::optionpricing::case("large", 65_536, 64, 1),
        Size::Quick => w::optionpricing::case("medium", 2048, 32, 1),
    }
}
fn locvolcalib(s: Size) -> Case {
    match s {
        Size::Full => w::locvolcalib::case("medium", 128, 128, 64, 1),
        Size::Quick => w::locvolcalib::case("small", 16, 64, 16, 1),
    }
}
fn nw(s: Size) -> Case {
    match s {
        Size::Full => w::nw::case("2048", 128, 16, 1),
        Size::Quick => w::nw::case("256", 16, 16, 1),
    }
}
fn lud(s: Size) -> Case {
    match s {
        Size::Full => w::lud::case("512", 32, 16, 1),
        Size::Quick => w::lud::case("128", 8, 16, 1),
    }
}
fn nn(s: Size) -> Case {
    match s {
        Size::Full => w::nn::case("855280", 855_280, 16, 1),
        Size::Quick => w::nn::case("8552", 8552, 8, 1),
    }
}
fn histogram(s: Size) -> Case {
    match s {
        Size::Full => w::irregular::histogram_case("100k/256", 100_000, 256, 1),
        // Smaller than `tables --quick` (10k): the scalar loop costs
        // ~1.4 us per item, and a 15 ms class would own the server's p99.
        Size::Quick => w::irregular::histogram_case("1k/64", 1_000, 64, 1),
    }
}
fn spmv(s: Size) -> Case {
    match s {
        Size::Full => w::irregular::spmv_case("100kx100k", 100_000, 100_000, 8, 1),
        Size::Quick => w::irregular::spmv_case("2kx2k", 2_000, 2_000, 8, 1),
    }
}
fn permutation(s: Size) -> Case {
    match s {
        Size::Full => w::irregular::permutation_case("1M", 1_000_000, 1),
        Size::Quick => w::irregular::permutation_case("10k", 10_000, 1),
    }
}

const HOTSPOT: ProgramSpec = spec("hotspot", hotspot, || w::hotspot::program().0);
const LBM: ProgramSpec = spec("lbm", lbm, || w::lbm::program().0);
const OPTIONPRICING: ProgramSpec = spec("optionpricing", optionpricing, || {
    w::optionpricing::program().0
});
const LOCVOLCALIB: ProgramSpec = spec("locvolcalib", locvolcalib, || w::locvolcalib::program().0);
const NW: ProgramSpec = spec("nw", nw, || w::nw::program().0);
const LUD: ProgramSpec = spec("lud", lud, || w::lud::program().0);
const NN: ProgramSpec = spec("nn", nn, || w::nn::program().0);
const SPMV: ProgramSpec = spec("spmv", spmv, || w::irregular::spmv_program().0);
const PERMUTATION: ProgramSpec = spec("permutation", permutation, || {
    w::irregular::permutation_program().0
});

pub const DENSE_KERNEL: &[ProgramSpec] = &[HOTSPOT, LBM, OPTIONPRICING, LOCVOLCALIB];
pub const DENSE_BLOCKED: &[ProgramSpec] = &[NW, LUD];
pub const IRREGULAR: &[ProgramSpec] = &[HISTOGRAM, SPMV, PERMUTATION];

/// The ten workload programs, in table order (`compile_cold` compiles
/// them, `server_mixed` serves their quick datasets).
pub const ALL_TEN: &[ProgramSpec] = &[
    NW,
    LUD,
    HOTSPOT,
    LBM,
    OPTIONPRICING,
    LOCVOLCALIB,
    NN,
    SPMV,
    HISTOGRAM,
    PERMUTATION,
];

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th fuzz program of a seed: a `len`-op decision trace
/// through the corpus generator. A trace that ends with nothing to
/// return (rare) is redrawn from the next sub-seed.
pub fn fuzz_program(seed: u64, index: u64, len: usize) -> Program {
    (0..)
        .find_map(|retry| build_program(&random_ops(mix(mix(seed, index), retry), len)))
        .expect("some trace of the generator yields a program")
}

/// One of the benchmark's source files with inputs to run it on.
pub struct Source {
    pub name: &'static str,
    pub text: &'static str,
    pub inputs: fn() -> Vec<InputValue>,
}

fn ramp(n: usize) -> Vec<f32> {
    (0..n).map(|i| i as f32 * 0.5).collect()
}

pub const SOURCES: &[Source] = &[
    Source {
        name: "diag_plus_row.aml",
        text: include_str!("../programs/diag_plus_row.aml"),
        inputs: || vec![InputValue::I64(24), InputValue::ArrayF32(ramp(24 * 24))],
    },
    Source {
        name: "halves.aml",
        text: include_str!("../programs/halves.aml"),
        inputs: || vec![InputValue::I64(100), InputValue::ArrayF32(ramp(200))],
    },
    Source {
        name: "squares.aml",
        text: include_str!("../programs/squares.aml"),
        inputs: || vec![InputValue::I64(64)],
    },
    Source {
        name: "pick.aml",
        text: include_str!("../programs/pick.aml"),
        inputs: || {
            vec![
                InputValue::Bool(false),
                InputValue::ArrayI64(vec![1, 2, 3, 4]),
            ]
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_decide_the_fuzz_draw() {
        let a = arraymem_ir::pretty::program_to_string(&fuzz_program(7, 3, 16));
        let b = arraymem_ir::pretty::program_to_string(&fuzz_program(7, 3, 16));
        let c = arraymem_ir::pretty::program_to_string(&fuzz_program(8, 3, 16));
        let scrub = arraymem_ir::pretty::scrub_uniques;
        assert_eq!(scrub(&a), scrub(&b));
        assert_ne!(scrub(&a), scrub(&c));
        assert_ne!(mix(1, 0), mix(1, 1));
    }

    #[test]
    fn source_files_parse() {
        for s in SOURCES {
            arraymem_lang::parse_program(s.text).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }
}
