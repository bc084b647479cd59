//! # multival — quantitative evaluation in embedded system design
//!
//! A Rust reproduction of the Multival flow (Coste, Garavel, Hermanns,
//! Hersemeule, Thonnart, Zidouni — DATE'08): joint *functional
//! verification* and *performance evaluation* of asynchronous
//! multiprocessor architectures, in the style of the CADP toolbox.
//!
//! This facade crate re-exports the whole stack and adds the integrated
//! [`flow`] API:
//!
//! * [`pa`] — mini-LOTOS process algebra + state-space generation;
//! * [`lts`] — labeled transition systems, composition, bisimulation
//!   minimization, equivalence checking;
//! * [`mcl`] — μ-calculus model checking;
//! * [`imc`] — Interactive Markov Chains, phase-type delays, lumping,
//!   CTMC conversion;
//! * [`ctmc`] — steady-state/transient solvers, hitting times, CTMDPs;
//! * [`models`] — the FAME2, FAUST, and xSTream case studies.
//!
//! # Examples
//!
//! End-to-end: verify a model, then predict its throughput.
//!
//! ```
//! use multival::flow::Flow;
//! use multival::imc::NondetPolicy;
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let flow = Flow::from_source(
//!     "process Buf[put, get](full: bool) :=
//!          [not full] -> put; Buf[put, get](true)
//!       [] [full]     -> get; Buf[put, get](false)
//!      endproc
//!      behaviour Buf[put, get](false)",
//! )?;
//! assert!(flow.deadlock().is_none());
//!
//! let mut rates = HashMap::new();
//! rates.insert("put".to_owned(), 2.0);
//! rates.insert("get".to_owned(), 1.0);
//! let solved = flow.with_rates(&rates).solve(NondetPolicy::Reject, &["get"])?;
//! let throughput = solved.throughputs()?[0].1;
//! assert!((throughput - 2.0 / 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod budget;
pub mod cli;
pub mod eval;
pub mod flow;
pub mod fuzz;
pub mod report;

pub use multival_ctmc as ctmc;
pub use multival_imc as imc;
pub use multival_lts as lts;
pub use multival_mcl as mcl;
pub use multival_models as models;
pub use multival_pa as pa;
pub use multival_par as par;

pub use flow::{Flow, FlowError, PerfFlow, Solved};
