//! # multival-bench — the experiment harness
//!
//! One module per experiment of the reproduction (E1–E9 and E13, see
//! DESIGN.md §5);
//! each returns rendered tables so the `experiments` binary can print them.

pub mod experiments;

pub use experiments::{run, EXPERIMENTS};
