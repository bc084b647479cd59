//! # multival-imc — Interactive Markov Chains
//!
//! The performance-evaluation core of the Multival reproduction (DATE'08):
//! IMCs combine LOTOS-style interactive transitions with exponentially
//! timed Markovian transitions (Hermanns, LNCS 2428), supported in CADP by
//! the `bcg_min` stochastic minimizer and the determinator — re-implemented
//! here as:
//!
//! * [`Imc`] / [`ImcBuilder`] — the chain structure;
//! * [`ops`] — parallel composition (Markovian interleaving), hiding, and
//!   the maximal-progress cut;
//! * [`mod@lump`] — stochastic bisimulation minimization;
//! * [`compositional`] — the compose-then-minimize pipeline of §4;
//! * [`phase_type`] — exponential / Erlang / hypo- / hyper-exponential
//!   delays, including the Erlang approximation of fixed delays (§5's
//!   space/accuracy trade-off);
//! * [`decorate`] — attaching delays to the gates of a functional LTS;
//! * [`mod@to_ctmc`] — elimination of instantaneous states and conversion to a
//!   CTMC (with explicit nondeterminism policies) or a CTMDP.
//!
//! # Examples
//!
//! The full §4 flow on a toy model — decorate, hide, convert, solve:
//!
//! ```
//! use multival_imc::{decorate::decorate_rates, ops::hide_all,
//!                    to_ctmc::{to_ctmc, NondetPolicy}};
//! use multival_lts::equiv::lts_from_triples;
//! use multival_ctmc::steady::{steady_state, SolveOptions};
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lts = lts_from_triples(&[(0, "WORK", 1), (1, "REST", 0)]);
//! let mut rates = HashMap::new();
//! rates.insert("WORK".to_owned(), 2.0);
//! rates.insert("REST".to_owned(), 1.0);
//! let imc = hide_all(&decorate_rates(&lts, &rates));
//! let conv = to_ctmc(&imc, NondetPolicy::Reject, &[])?;
//! let pi = steady_state(&conv.ctmc, &SolveOptions::default())?;
//! assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod compositional;
pub mod decorate;
pub mod imc;
pub mod lump;
pub mod ops;
pub mod phase_type;
pub mod to_ctmc;

pub use imc::{Imc, ImcBuilder, ImcError, Interactive, Markovian, State};
pub use lump::{lump, LumpOptions, LumpStats};
pub use multival_par::Workers;
pub use phase_type::Delay;
pub use to_ctmc::{
    to_ctmc, to_ctmdp_lifted, CtmcConversion, CtmdpConversion, NondetPolicy, ToCtmcError,
};
