//! # multival-lts — explicit labeled transition systems
//!
//! The LTS toolbox of the Multival reproduction (DATE'08): the Rust
//! counterpart of CADP's BCG/Aldebaran layer. It provides:
//!
//! * [`Lts`] / [`LtsBuilder`] — explicit state spaces with interned labels;
//! * [`ops`] — LOTOS-style parallel composition (`|[G]|`, `||`, `|||`),
//!   hiding and renaming, used for *structural* bottom-up modeling;
//! * [`minimize`] — strong and branching bisimulation minimization by
//!   signature-based partition refinement (the engine of compositional
//!   verification);
//! * [`equiv`] — equivalence checking between two LTSs, including weak-trace
//!   comparison with distinguishing-trace diagnostics;
//! * [`simulation`] — strong/weak simulation preorders for refinement
//!   checking (implementation ≤ specification);
//! * [`analysis`] — reachability searches, deadlock/invariant witnesses;
//! * [`ts`] / [`reach`] — the on-the-fly layer: a [`TransitionSystem`]
//!   successor-function trait (the CADP Open/Caesar analogue) with lazy
//!   products, hide/rename views, and a generic exploration engine that
//!   walks implicit graphs without materializing them;
//! * [`io`] — Aldebaran `.aut`, compact binary BLTS, and Graphviz `.dot`
//!   interchange;
//! * [`store`] — pluggable state stores for million-state frontiers:
//!   hash-map, packed-arena, and spill-to-disk dedup backends behind one
//!   [`store::StateStore`] trait;
//! * [`pipeline`] — the smart compositional reduction pipeline: heuristic
//!   composition orders, early hiding, per-stage minimization, resumable
//!   checkpoints, and a canonical serialization for differential testing.
//!
//! # Examples
//!
//! Compose two handshaking components and minimize the result:
//!
//! ```
//! use multival_lts::{equiv::lts_from_triples, ops::{compose, Sync},
//!                    minimize::{minimize, Equivalence}};
//!
//! let sender = lts_from_triples(&[(0, "REQ", 1), (1, "ACK", 0)]);
//! let receiver = lts_from_triples(&[(0, "REQ", 1), (1, "i", 2), (2, "ACK", 0)]);
//! let system = compose(&sender, &receiver, &Sync::on(["REQ", "ACK"]));
//! let (min, stats) = minimize(&system, Equivalence::Branching);
//! assert!(min.num_states() <= system.num_states());
//! assert_eq!(stats.states_before, system.num_states());
//! ```

pub mod analysis;
pub mod equiv;
pub mod io;
pub mod label;
pub mod lts;
pub mod lzss;
pub mod minimize;
pub mod ops;
pub mod pipeline;
pub mod reach;
pub mod simulation;
pub mod store;
pub mod ts;
pub mod vbyte;

pub use label::{LabelId, LabelTable};
pub use lts::{Lts, LtsBuilder, StateId, Transition};
pub use minimize::{Equivalence, Partition, ReductionStats};
pub use multival_par::{SplitMix64, Workers};
pub use pipeline::{
    canonicalize, monolithic, run_pipeline, AbortReason, MonolithicRun, Network, Order,
    PipelineOptions, PipelineRun, StageStats,
};
pub use reach::{ReachOptions, ReachStats, ScanSummary, SearchOutcome};
pub use store::{make_store, PackState, StateStore, StoreConfig, StoreKind, StoreStats};
pub use ts::{HideView, LazyProduct, RenameView, TransitionSystem};
