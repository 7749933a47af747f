//! The textual source language (paper §III-B: LMAD slicing "allows a
//! shorter and nicer notation" at the language level): parse a program,
//! compile it with short-circuiting, and run it.
//!
//! ```sh
//! cargo run --example source_language
//! ```

use arraymem_core::{compile, Options};
use arraymem_exec::{run_program, InputValue, KernelRegistry, Mode};
use arraymem_lang::parse_program;

const SRC: &str = r"
    -- Add the first row of a (flattened) n*n matrix to its diagonal.
    -- The generalized LMAD slices below are exactly the paper's notation.
    assume n >= 1
    fn diag_plus_row(n: i64, A: [n*n]f32) =
      let diag = A[lmad 0 + {(n : n+1)}] in
      let row  = A[lmad 0 + {(n : 1)}] in
      let X    = map (\d r -> d + r) diag row in
      let A2   = A with [lmad 0 + {(n : n+1)}] = X in
      A2
";

fn main() {
    println!("--- source ---\n{SRC}");
    let elab = parse_program(SRC).expect("parse");
    println!("--- elaborated IR ---");
    println!("{}", arraymem_ir::pretty::program_to_string(&elab.program));

    let opt = compile(
        &elab.program,
        &Options::optimized().with_env(elab.env.clone()),
    )
    .expect("compile");
    println!("--- short-circuiting ---");
    for c in &opt.report.candidates {
        println!(
            "  {} -> {}",
            c.root,
            if c.succeeded { "elided" } else { &c.reason }
        );
    }
    // The pipeline's structured remark stream (the `-Rpass` analogue):
    // every stage's decisions, anchored at statements, plus per-stage
    // timings. `ARRAYMEM_PRINT_IR=1` additionally dumps the IR after
    // every stage.
    println!("--- optimization remarks ---");
    for r in &opt.compile_report.remarks {
        println!("  {r}");
    }
    println!("--- pipeline ---");
    for p in &opt.compile_report.passes {
        println!(
            "  {:<13} {:>8.3}ms | stms {:>2} -> {:>2} | remarks {}",
            p.name,
            p.time.as_secs_f64() * 1e3,
            p.before.stms,
            p.after.stms,
            p.remarks
        );
    }

    let n = 4usize;
    let data: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
    let (out, stats) = run_program(
        &opt.program,
        &[InputValue::I64(n as i64), InputValue::ArrayF32(data)],
        &KernelRegistry::new(),
        Mode::Memory,
        1,
    )
    .expect("run");
    println!("--- result ---\n{:?}", out[0]);
    println!("--- stats ---");
    for (name, value) in stats.counters() {
        println!("  {name:<28} {value}");
    }
}
