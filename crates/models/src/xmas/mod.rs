//! An xMAS fabric workbench: a typed primitive algebra, a compiler onto
//! the process-algebra layer, a seeded topology generator, and a
//! minimizing shrinker.
//!
//! xMAS (eXecutable MicroArchitectural Specifications, van Gastel &
//! Schmaltz's "A formalisation of xMAS") builds communication fabrics
//! from eight primitives — **queue**, **source**, **sink**, **fork**,
//! **join**, **switch**, **merge**, **function** — wired by typed
//! channels. Exactly the FAUST/xSTream domain of the paper's case
//! studies, but *compositional*: any well-formed wiring is a fabric.
//!
//! # Compilation scheme
//!
//! Queues are the only stateful primitives. A capacity-`c` queue becomes
//! `c` one-place *cell* processes chained by hidden hop gates (the
//! chain-of-cells is branching-equivalent to a counting queue — the
//! repo's buffer-chain lemma). Every combinational primitive compiles to
//! *gate wiring* between adjacent cells: a **firing** is one maximal
//! forward propagation from an origin (a source, or the tail cell of a
//! queue) through combinational primitives to the sinks and queue head
//! cells it reaches. Each firing becomes one multiway-synchronized gate
//! among its participating cells, so the composed network has no hidden
//! buffering beyond the declared queues — which is what makes the
//! compiled fabrics bisimilar to the repo's hand-written FAUST and
//! xSTream models (see [`cases`]).
//!
//! Two independent compile paths ([`compile::compile_network`] building
//! LTS components directly, and [`compile::render_lot`] emitting
//! mini-LOTOS source for the `pa` frontend) act as a differential oracle
//! for the fuzzing harness (`multival fuzz`).

pub mod analyze;
pub mod cases;
pub mod compile;
pub mod gen;
pub mod shrink;

pub use analyze::{Analysis, Cell, CellState, Firing, Gate};
pub use compile::{compile_network, render_lot, RenderOptions};
pub use gen::{generate, GenConfig};
pub use shrink::shrink;

use std::collections::BTreeMap;
use std::fmt;

/// A data color (packet value) carried by a channel. Colors are small
/// non-negative integers so they can be rendered as mini-LOTOS literals.
pub type Color = i64;

/// Largest admissible color value.
pub const MAX_COLOR: Color = 999_999;

/// Largest admissible queue capacity.
pub const MAX_CAP: usize = 16;

/// An xMAS primitive. Port conventions (in/out arity in comments):
/// out ports and in ports are numbered from 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prim {
    /// Emits any of `colors`, always ready (0 in / 1 out).
    Source {
        /// The non-empty set of colors this source can emit.
        colors: Vec<Color>,
    },
    /// Absorbs anything, always ready (1 in / 0 out).
    Sink,
    /// FIFO buffer of capacity `cap`, pre-loaded with `init` tokens
    /// (front of the queue first) (1 in / 1 out).
    Queue {
        /// Capacity in places (1..=[`MAX_CAP`]).
        cap: usize,
        /// Initial tokens, next-out first (`init.len() <= cap`).
        init: Vec<Color>,
    },
    /// Duplicates each input onto both outputs atomically (1 in / 2 out).
    Fork,
    /// Synchronizes its *primary* input (port 0, carries the data) with a
    /// value-blind token from its *secondary* input (port 1) (2 in / 1 out).
    /// The secondary must be fed directly by a queue or a source.
    Join,
    /// Routes colors in `on` to output 0, all others to output 1
    /// (1 in / 2 out).
    Switch {
        /// Colors routed to output port 0.
        on: Vec<Color>,
    },
    /// Arbiter: forwards one input at a time, either side (2 in / 1 out).
    Merge,
    /// Rewrites colors by a total map over the inflow set (1 in / 1 out).
    Function {
        /// Pairs `(from, to)`; must cover every inflow color.
        map: Vec<(Color, Color)>,
    },
}

impl Prim {
    /// Number of input ports.
    #[must_use]
    pub fn in_ports(&self) -> usize {
        match self {
            Prim::Source { .. } => 0,
            Prim::Sink | Prim::Queue { .. } | Prim::Fork | Prim::Switch { .. } => 1,
            Prim::Function { .. } => 1,
            Prim::Join | Prim::Merge => 2,
        }
    }

    /// Number of output ports.
    #[must_use]
    pub fn out_ports(&self) -> usize {
        match self {
            Prim::Sink => 0,
            Prim::Source { .. } | Prim::Queue { .. } | Prim::Join | Prim::Merge => 1,
            Prim::Function { .. } => 1,
            Prim::Fork | Prim::Switch { .. } => 2,
        }
    }
}

/// A visible label attached to a channel: firings whose primary
/// propagation traverses the channel synchronize on a gate named after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChanLabel {
    /// Gate base name (a mini-LOTOS identifier, not starting with the
    /// reserved prefixes `h_`/`t_`).
    pub name: String,
    /// Render the carried color as a data offer (`name !v`). When
    /// `false`, the label must be unambiguous (a single firing pattern).
    pub show_value: bool,
}

/// A directed channel from an output port to an input port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Producer end `(prim index, output port)`.
    pub from: (usize, usize),
    /// Consumer end `(prim index, input port)`.
    pub to: (usize, usize),
    /// Optional visible label.
    pub label: Option<ChanLabel>,
}

/// A wired xMAS fabric: named primitives, channels, and per-gate rate
/// annotations for the performance layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fabric {
    prims: Vec<(String, Prim)>,
    channels: Vec<Channel>,
    rates: BTreeMap<String, f64>,
}

impl Fabric {
    /// An empty fabric.
    #[must_use]
    pub fn new() -> Fabric {
        Fabric::default()
    }

    /// Adds a primitive under `name` (a unique mini-LOTOS identifier)
    /// and returns its index.
    pub fn add(&mut self, name: &str, prim: Prim) -> usize {
        self.prims.push((name.to_owned(), prim));
        self.prims.len() - 1
    }

    /// Wires `from`'s output port `out_port` to `to`'s input port
    /// `in_port` with no label.
    pub fn wire(&mut self, from: usize, out_port: usize, to: usize, in_port: usize) {
        self.channels.push(Channel { from: (from, out_port), to: (to, in_port), label: None });
    }

    /// Wires a labeled (observable) channel; see [`ChanLabel`].
    pub fn wire_labeled(
        &mut self,
        from: usize,
        out_port: usize,
        to: usize,
        in_port: usize,
        label: &str,
        show_value: bool,
    ) {
        self.channels.push(Channel {
            from: (from, out_port),
            to: (to, in_port),
            label: Some(ChanLabel { name: label.to_owned(), show_value }),
        });
    }

    /// Annotates visible gate `gate` with an exponential `rate` for the
    /// performance flow.
    pub fn set_rate(&mut self, gate: &str, rate: f64) {
        self.rates.insert(gate.to_owned(), rate);
    }

    /// The rate annotations (gate base name → rate).
    #[must_use]
    pub fn rates(&self) -> &BTreeMap<String, f64> {
        &self.rates
    }

    /// The primitives, in insertion order.
    #[must_use]
    pub fn prims(&self) -> &[(String, Prim)] {
        &self.prims
    }

    /// The channels, in insertion order.
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Number of primitives.
    #[must_use]
    pub fn num_prims(&self) -> usize {
        self.prims.len()
    }

    /// Number of channels.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Lexicographic shrink metric: `(primitives, channels, capacity +
    /// init tokens + source colors)` — the shrinker only accepts
    /// candidates that strictly decrease it.
    #[must_use]
    pub fn size_metric(&self) -> (usize, usize, u64) {
        let mut bulk = 0u64;
        for (_, p) in &self.prims {
            match p {
                Prim::Queue { cap, init } => bulk += (*cap + init.len()) as u64,
                Prim::Source { colors } => bulk += colors.len() as u64,
                _ => {}
            }
        }
        (self.prims.len(), self.channels.len(), bulk)
    }

    /// Type-checks the fabric and computes its compilation artifacts
    /// (channel colorsets, firings, gates, cell automata).
    ///
    /// # Errors
    ///
    /// Returns the first well-formedness violation found; see
    /// [`XmasError`] for the catalogue.
    pub fn validate(&self) -> Result<Analysis, XmasError> {
        analyze::analyze(self, false)
    }
}

/// A well-formedness or compilation error for an xMAS fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum XmasError {
    /// A primitive or label name is not a valid identifier (or clashes
    /// with reserved names).
    BadName {
        /// The offending name.
        name: String,
        /// What the name was used for.
        role: &'static str,
    },
    /// Two primitives share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A color literal is out of the admissible range.
    BadColor {
        /// The offending color.
        color: Color,
    },
    /// A queue has a zero/oversized capacity or more init tokens than
    /// places.
    BadQueue {
        /// The queue's name.
        prim: String,
    },
    /// A source declares no colors, or a function map repeats a key.
    BadPrim {
        /// The primitive's name.
        prim: String,
        /// What is wrong.
        detail: String,
    },
    /// A channel references a port that does not exist.
    BadPort {
        /// Channel index.
        channel: usize,
    },
    /// Two channels share an endpoint port.
    DuplicatePort {
        /// The primitive's name.
        prim: String,
        /// Port index.
        port: usize,
        /// `"in"` or `"out"`.
        dir: &'static str,
    },
    /// A port is left unconnected.
    UnconnectedPort {
        /// The primitive's name.
        prim: String,
        /// Port index.
        port: usize,
        /// `"in"` or `"out"`.
        dir: &'static str,
    },
    /// The fabric has no queue — nothing to compile into components.
    NoQueues,
    /// A channel can never carry any color.
    DeadChannel {
        /// Channel index.
        channel: usize,
        /// Producer primitive name.
        from: String,
    },
    /// A function's map misses an inflow color.
    FunctionIncomplete {
        /// The function's name.
        prim: String,
        /// The unmapped color.
        color: Color,
    },
    /// A join's secondary input is not fed directly by a queue or source.
    JoinSecondaryNotDirect {
        /// The join's name.
        prim: String,
    },
    /// A firing's propagation reaches the same channel twice (a
    /// combinational cycle or a reconvergent fork).
    ReconvergentFiring {
        /// The channel reached twice.
        channel: usize,
    },
    /// A source-originated firing touches no queue cell, so no process
    /// could carry its gate.
    FiringWithoutStorage {
        /// The origin source's name.
        origin: String,
    },
    /// One firing traverses two labeled channels.
    AmbiguousLabel {
        /// The two label names.
        names: (String, String),
    },
    /// Two distinct firings on one gate would render the same label.
    AmbiguousLabelValue {
        /// The gate name.
        gate: String,
    },
    /// A `show_value: false` label covers more than one firing pattern.
    BareLabelMultiPattern {
        /// The label name.
        name: String,
    },
    /// Both `show_value` styles used for the same gate.
    MixedLabelStyle {
        /// The label name.
        name: String,
    },
    /// Two gates ended up with the same rendered name.
    GateNameClash {
        /// The clashing name.
        name: String,
    },
}

impl fmt::Display for XmasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmasError::BadName { name, role } => write!(f, "invalid {role} name `{name}`"),
            XmasError::DuplicateName { name } => write!(f, "duplicate primitive name `{name}`"),
            XmasError::BadColor { color } => {
                write!(f, "color {color} outside 0..={MAX_COLOR}")
            }
            XmasError::BadQueue { prim } => {
                write!(f, "queue `{prim}`: capacity must be 1..={MAX_CAP} and hold its init tokens")
            }
            XmasError::BadPrim { prim, detail } => write!(f, "primitive `{prim}`: {detail}"),
            XmasError::BadPort { channel } => {
                write!(f, "channel #{channel} references a nonexistent port")
            }
            XmasError::DuplicatePort { prim, port, dir } => {
                write!(f, "{dir} port {port} of `{prim}` wired twice")
            }
            XmasError::UnconnectedPort { prim, port, dir } => {
                write!(f, "{dir} port {port} of `{prim}` left unconnected")
            }
            XmasError::NoQueues => write!(f, "fabric has no queue"),
            XmasError::DeadChannel { channel, from } => {
                write!(f, "channel #{channel} (from `{from}`) can never carry a color")
            }
            XmasError::FunctionIncomplete { prim, color } => {
                write!(f, "function `{prim}` has no mapping for inflow color {color}")
            }
            XmasError::JoinSecondaryNotDirect { prim } => {
                write!(
                    f,
                    "join `{prim}`: secondary input must come directly from a queue or source"
                )
            }
            XmasError::ReconvergentFiring { channel } => {
                write!(f, "combinational cycle or reconvergent fork through channel #{channel}")
            }
            XmasError::FiringWithoutStorage { origin } => {
                write!(f, "firing from source `{origin}` reaches no queue cell")
            }
            XmasError::AmbiguousLabel { names } => {
                write!(f, "one firing traverses two labels `{}` and `{}`", names.0, names.1)
            }
            XmasError::AmbiguousLabelValue { gate } => {
                write!(f, "gate `{gate}`: one label maps to two different firings")
            }
            XmasError::BareLabelMultiPattern { name } => {
                write!(f, "bare label `{name}` covers more than one firing pattern")
            }
            XmasError::MixedLabelStyle { name } => {
                write!(f, "label `{name}` mixes show_value styles")
            }
            XmasError::GateNameClash { name } => write!(f, "gate name `{name}` assigned twice"),
        }
    }
}

impl std::error::Error for XmasError {}

/// Whether `name` is a usable mini-LOTOS identifier for gates/processes.
pub(crate) fn is_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}
