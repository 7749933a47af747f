//! The seven benchmarks of the paper's evaluation (§VI), each as:
//!
//! - a **reference** implementation — hand-written imperative Rust with
//!   manual in-place memory reuse, playing the role of the Rodinia /
//!   Parboil / FinPar hand-written GPU code;
//! - a **Futhark-style IR program** built with the `arraymem-ir` builder,
//!   expressing the same computation with correct-by-construction
//!   parallelism (separate reads/writes, fresh arrays, slice updates);
//! - the **native kernels** its maps invoke (the "generated GPU code");
//! - input generators and a validator comparing all versions.
//!
//! Datasets are scaled from the paper's GPU sizes to a single-core CI
//! machine; the mapping is documented per table in `EXPERIMENTS.md`.

pub mod data;
pub mod harness;
pub mod hotspot;
pub mod irregular;
pub mod lbm;
pub mod locvolcalib;
pub mod lud;
pub mod nn;
pub mod nw;
pub mod optionpricing;

pub use harness::{measure_case, Case, Measurement, RefFn};

#[cfg(test)]
mod tests;
