//! # ompi-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) from
//! the simulated stack, plus the ablations DESIGN.md calls out. Each
//! experiment is a pure function returning a [`report::Table`]; the
//! `harness` binary prints them and `EXPERIMENTS.md` records them against
//! the paper's numbers.

pub mod compare;
pub mod experiments;
pub mod gate;
pub mod measure;
pub mod report;

pub use experiments::*;
pub use report::Table;
