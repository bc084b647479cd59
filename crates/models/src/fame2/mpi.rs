//! The MPI software layer over the coherent shared memory.
//!
//! MPI send/receive are expressed as *programs* — sequences of memory
//! operations on shared cache lines — in two software implementations:
//!
//! * **eager**: the sender copies the payload into a mailbox buffer at the
//!   receiver and raises a flag; the receiver polls the flag, reads the
//!   mailbox, and copies the payload out into its user buffer (an extra
//!   copy, but only one synchronization);
//! * **rendezvous**: the sender posts a request-to-send, waits for the
//!   clear-to-send, writes the payload *directly* into the receiver's user
//!   buffer and raises a done flag (no extra copy, but three
//!   synchronizations).
//!
//! Every memory operation goes through the MSI/MESI protocol of
//! [`crate::fame2::coherence`], one line at a time, serialized by the
//! coherence fabric. All protocol messages appear as labels carrying
//! global node ids, so the benchmark layer can attach topology-dependent
//! delays.

use crate::common::Model;
use crate::fame2::coherence::{CacheState, CoherenceModel, Phase, Protocol, Txn, TxnKind};
use crate::fame2::topology::Topology;

/// Which MPI implementation the programs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiImpl {
    /// Buffered send with one synchronization and an extra copy.
    Eager,
    /// Zero-copy send with a three-way handshake.
    Rendezvous,
}

impl std::fmt::Display for MpiImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiImpl::Eager => write!(f, "eager"),
            MpiImpl::Rendezvous => write!(f, "rendezvous"),
        }
    }
}

/// A shared cache line with a home node (whose memory controller serves
/// misses for it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Line {
    /// Diagnostic name.
    pub name: String,
    /// Home node (global id).
    pub home: usize,
}

/// One memory operation of an MPI program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Load the line (hit or read transaction).
    Read(usize),
    /// Store `true` to the line (hit, upgrade, or write transaction).
    Write(usize),
    /// Store `false` to the line (same coherence cost as a write) — used to
    /// reset flags between rounds of a cyclic benchmark.
    Clear(usize),
    /// Spin-read until the line's value is `true`.
    PollSet(usize),
    /// Emit a visible marker label (no memory effect) — used as a
    /// throughput probe (`MARK !<name>`).
    Mark(&'static str),
}

/// Configuration of a two-party MPI exchange.
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Interconnect (determines node placement and hop distances).
    pub topology: Topology,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// MPI implementation.
    pub implementation: MpiImpl,
    /// Payload size in cache lines per message.
    pub payload: usize,
}

/// The two communicating ranks: rank 0 at node 0, rank 1 at the node
/// farthest from it in the topology.
pub fn participants(topology: &Topology) -> (usize, usize) {
    (0, topology.farthest_from(0))
}

/// The ping-pong programs: rank 0 sends `payload` lines to rank 1, which
/// replies with an equal-sized message. Returns `(lines, prog0, prog1)`.
pub fn ping_pong_programs(config: &MpiConfig) -> (Vec<Line>, Vec<Op>, Vec<Op>) {
    let (a, b) = participants(&config.topology);
    let mut lines: Vec<Line> = Vec::new();
    let mut line = |name: String, home: usize| -> usize {
        lines.push(Line { name, home });
        lines.len() - 1
    };
    let payload = config.payload;
    let mut prog_a: Vec<Op> = Vec::new();
    let mut prog_b: Vec<Op> = Vec::new();

    // Private source buffers, prepared read-modify-write (where MESI's E
    // state pays off: the read installs E, the write upgrades silently).
    let src_a: Vec<usize> = (0..payload).map(|i| line(format!("srcA{i}"), a)).collect();
    let src_b: Vec<usize> = (0..payload).map(|i| line(format!("srcB{i}"), b)).collect();

    match config.implementation {
        MpiImpl::Eager => {
            let mb_b: Vec<usize> = (0..payload).map(|i| line(format!("mbB{i}"), b)).collect();
            let mb_a: Vec<usize> = (0..payload).map(|i| line(format!("mbA{i}"), a)).collect();
            let dst_a: Vec<usize> = (0..payload).map(|i| line(format!("dstA{i}"), a)).collect();
            let dst_b: Vec<usize> = (0..payload).map(|i| line(format!("dstB{i}"), b)).collect();
            let flag_ab = line("flagAB".into(), b);
            let flag_ba = line("flagBA".into(), a);

            // Rank 0: prepare, copy into B's mailbox, flag; then receive.
            for &l in &src_a {
                prog_a.push(Op::Read(l));
                prog_a.push(Op::Write(l));
            }
            for &l in &mb_b {
                prog_a.push(Op::Write(l));
            }
            prog_a.push(Op::Write(flag_ab));
            prog_a.push(Op::PollSet(flag_ba));
            for &l in &mb_a {
                prog_a.push(Op::Read(l));
            }
            for &l in &dst_a {
                prog_a.push(Op::Write(l));
            }

            // Rank 1: receive, copy out; then prepare and send the reply.
            prog_b.push(Op::PollSet(flag_ab));
            for &l in &mb_b {
                prog_b.push(Op::Read(l));
            }
            for &l in &dst_b {
                prog_b.push(Op::Write(l));
            }
            for &l in &src_b {
                prog_b.push(Op::Read(l));
                prog_b.push(Op::Write(l));
            }
            for &l in &mb_a {
                prog_b.push(Op::Write(l));
            }
            prog_b.push(Op::Write(flag_ba));
        }
        MpiImpl::Rendezvous => {
            let usr_b: Vec<usize> = (0..payload).map(|i| line(format!("usrB{i}"), b)).collect();
            let usr_a: Vec<usize> = (0..payload).map(|i| line(format!("usrA{i}"), a)).collect();
            let rts_ab = line("rtsAB".into(), b);
            let cts_ba = line("ctsBA".into(), a);
            let done_ab = line("doneAB".into(), b);
            let rts_ba = line("rtsBA".into(), a);
            let cts_ab = line("ctsAB".into(), b);
            let done_ba = line("doneBA".into(), a);

            // Rank 0: prepare, handshake, write directly, done; then the
            // receive side of the reply.
            for &l in &src_a {
                prog_a.push(Op::Read(l));
                prog_a.push(Op::Write(l));
            }
            prog_a.push(Op::Write(rts_ab));
            prog_a.push(Op::PollSet(cts_ba));
            for &l in &usr_b {
                prog_a.push(Op::Write(l));
            }
            prog_a.push(Op::Write(done_ab));
            prog_a.push(Op::PollSet(rts_ba));
            prog_a.push(Op::Write(cts_ab));
            prog_a.push(Op::PollSet(done_ba));
            for &l in &usr_a {
                prog_a.push(Op::Read(l));
            }

            // Rank 1: receive side; then prepare and send the reply.
            prog_b.push(Op::PollSet(rts_ab));
            prog_b.push(Op::Write(cts_ba));
            prog_b.push(Op::PollSet(done_ab));
            for &l in &usr_b {
                prog_b.push(Op::Read(l));
            }
            for &l in &src_b {
                prog_b.push(Op::Read(l));
                prog_b.push(Op::Write(l));
            }
            prog_b.push(Op::Write(rts_ba));
            prog_b.push(Op::PollSet(cts_ab));
            for &l in &usr_a {
                prog_b.push(Op::Write(l));
            }
            prog_b.push(Op::Write(done_ba));
        }
    }
    (lines, prog_a, prog_b)
}

/// The cyclic variant of [`ping_pong_programs`]: flags are cleared by
/// their consumer, and rank 0 emits a `MARK !round` probe once per round
/// trip. Payload-line *values* are irrelevant in steady state (only the
/// coherence traffic matters), so payload writes/reads repeat as-is.
pub fn cyclic_ping_pong_programs(config: &MpiConfig) -> (Vec<Line>, Vec<Op>, Vec<Op>) {
    let (lines, mut prog_a, mut prog_b) = ping_pong_programs(&config.clone());
    // Insert a Clear immediately after every successful PollSet so the flag
    // is re-armed for the next round, and a round marker at the end of
    // rank 0's program.
    let add_clears = |prog: &mut Vec<Op>| {
        let mut i = 0;
        while i < prog.len() {
            if let Op::PollSet(l) = prog[i] {
                prog.insert(i + 1, Op::Clear(l));
                i += 1;
            }
            i += 1;
        }
    };
    add_clears(&mut prog_a);
    add_clears(&mut prog_b);
    prog_a.push(Op::Mark("round"));
    (lines, prog_a, prog_b)
}

/// State of the two-rank MPI execution over the coherent memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MpiState {
    /// Per line, the cache state at rank 0 and rank 1.
    pub caches: Vec<[CacheState; 2]>,
    /// Bit per line: has `true` been stored?
    pub values: u64,
    /// The in-flight coherence transaction (serialized fabric), plus its
    /// line; the rank is `txn.node` (participant index, 0 or 1).
    pub bus: Option<(u16, Txn)>,
    /// Program counters of the two ranks.
    pub pc: [u16; 2],
}

/// The combined MPI + coherence model.
#[derive(Debug, Clone)]
pub struct MpiModel {
    /// Configuration.
    pub config: MpiConfig,
    /// Shared lines.
    pub lines: Vec<Line>,
    /// Programs of the two ranks.
    pub programs: [Vec<Op>; 2],
    /// When set, program counters wrap around: the benchmark repeats
    /// forever (steady-state bandwidth mode, flags reset via [`Op::Clear`]).
    pub cyclic: bool,
    node_ids: [usize; 2],
    protocol: CoherenceModel,
}

impl MpiModel {
    /// Builds the single-round ping-pong model (absorbing; latency mode).
    pub fn ping_pong(config: MpiConfig) -> Self {
        let (lines, prog_a, prog_b) = ping_pong_programs(&config);
        let (a, b) = participants(&config.topology);
        MpiModel {
            config,
            lines,
            programs: [prog_a, prog_b],
            cyclic: false,
            node_ids: [a, b],
            protocol: CoherenceModel { nodes: 2, protocol: config.protocol },
        }
    }

    /// Builds the *cyclic* ping-pong model: flags are cleared after
    /// consumption, a `MARK !round` probe fires once per round trip, and
    /// the programs loop forever — the steady-state bandwidth benchmark.
    pub fn ping_pong_cyclic(config: MpiConfig) -> Self {
        let (lines, prog_a, prog_b) = cyclic_ping_pong_programs(&config);
        let (a, b) = participants(&config.topology);
        MpiModel {
            config,
            lines,
            programs: [prog_a, prog_b],
            cyclic: true,
            node_ids: [a, b],
            protocol: CoherenceModel { nodes: 2, protocol: config.protocol },
        }
    }

    fn advance(&self, st: &mut MpiState, p: usize) {
        st.pc[p] += 1;
        if self.cyclic && st.pc[p] as usize >= self.programs[p].len() {
            st.pc[p] = 0;
        }
    }

    /// Is the state terminal (both programs finished)?
    pub fn finished(&self, s: &MpiState) -> bool {
        (0..2).all(|p| s.pc[p] as usize >= self.programs[p].len())
    }

    fn value(&self, s: &MpiState, l: usize) -> bool {
        s.values & (1 << l) != 0
    }

    fn with_value(&self, s: &MpiState, l: usize) -> u64 {
        s.values | (1 << l)
    }
}

impl Model for MpiModel {
    type State = MpiState;

    fn initial(&self) -> MpiState {
        assert!(self.lines.len() <= 64, "value bitmap holds at most 64 lines");
        MpiState {
            caches: vec![[CacheState::I; 2]; self.lines.len()],
            values: 0,
            bus: None,
            pc: [0, 0],
        }
    }

    fn successors(&self, s: &MpiState) -> Vec<(String, MpiState)> {
        let mut out = Vec::new();
        match &s.bus {
            Some((l, txn)) => {
                // Progress the in-flight transaction on its line.
                let line = *l as usize;
                let caches = [s.caches[line][0], s.caches[line][1]];
                let suffix = format!(" !{line}");
                let mut steps = Vec::new();
                self.protocol.protocol_successors_mapped(
                    &caches,
                    &Some(*txn),
                    |_, _| false,
                    &self.node_ids,
                    &suffix,
                    &mut steps,
                );
                for (label, next) in steps {
                    let mut st = s.clone();
                    st.caches[line] = [next.caches[0], next.caches[1]];
                    st.bus = next.bus.map(|t| (*l, t));
                    if label.starts_with("GRANT") {
                        // The requesting rank's pending op completes.
                        let p = txn.node as usize;
                        self.complete_op(&mut st, p, line, txn.kind);
                    }
                    out.push((label, st));
                }
            }
            None => {
                // Each rank may attempt its next op; issues race.
                for p in 0..2 {
                    let pc = s.pc[p] as usize;
                    let Some(op) = self.programs[p].get(pc) else { continue };
                    let node = self.node_ids[p];
                    match *op {
                        Op::Mark(name) => {
                            let mut st = s.clone();
                            self.advance(&mut st, p);
                            out.push((format!("MARK !{name}"), st));
                        }
                        Op::Read(l) => {
                            if s.caches[l][p].readable() {
                                let mut st = s.clone();
                                self.advance(&mut st, p);
                                out.push((format!("RD_HIT !{node} !{l}"), st));
                            } else {
                                let mut st = s.clone();
                                st.bus = Some((
                                    l as u16,
                                    Txn { node: p as u8, kind: TxnKind::Read, phase: Phase::Snoop },
                                ));
                                out.push((format!("RD !{node} !{l}"), st));
                            }
                        }
                        Op::PollSet(l) => {
                            if s.caches[l][p].readable() {
                                if self.value(s, l) {
                                    let mut st = s.clone();
                                    self.advance(&mut st, p);
                                    out.push((format!("RD_HIT !{node} !{l}"), st));
                                } else {
                                    // Spin: reread the (coherent) copy.
                                    out.push((format!("POLL !{node} !{l}"), s.clone()));
                                }
                            } else {
                                let mut st = s.clone();
                                st.bus = Some((
                                    l as u16,
                                    Txn { node: p as u8, kind: TxnKind::Read, phase: Phase::Snoop },
                                ));
                                out.push((format!("RD !{node} !{l}"), st));
                            }
                        }
                        Op::Write(l) | Op::Clear(l) => {
                            let set = matches!(op, Op::Write(_));
                            if s.caches[l][p].writable(self.config.protocol) {
                                let mut st = s.clone();
                                if s.caches[l][p] == CacheState::E {
                                    st.caches[l][p] = CacheState::M;
                                }
                                st.values = if set {
                                    self.with_value(s, l)
                                } else {
                                    s.values & !(1u64 << l)
                                };
                                self.advance(&mut st, p);
                                out.push((format!("WR_HIT !{node} !{l}"), st));
                            } else {
                                let mut st = s.clone();
                                st.bus = Some((
                                    l as u16,
                                    Txn {
                                        node: p as u8,
                                        kind: TxnKind::Write,
                                        phase: Phase::Snoop,
                                    },
                                ));
                                out.push((format!("WR !{node} !{l}"), st));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl MpiModel {
    /// Applies the effect of the completed (granted) operation of rank `p`
    /// on `line` and advances its program counter — except for a poll that
    /// read `false`, which retries.
    fn complete_op(&self, st: &mut MpiState, p: usize, line: usize, kind: TxnKind) {
        let pc = st.pc[p] as usize;
        let op = self.programs[p].get(pc).copied();
        match (op, kind) {
            (Some(Op::Write(l)), TxnKind::Write) if l == line => {
                st.values |= 1 << l;
                self.advance(st, p);
            }
            (Some(Op::Clear(l)), TxnKind::Write) if l == line => {
                st.values &= !(1u64 << l);
                self.advance(st, p);
            }
            (Some(Op::Read(l)), TxnKind::Read) if l == line => {
                self.advance(st, p);
            }
            (Some(Op::PollSet(l)), TxnKind::Read) if l == line => {
                if st.values & (1 << l) != 0 {
                    self.advance(st, p);
                }
                // else: keep polling (now with a valid S copy).
            }
            _ => unreachable!("grant without a matching pending op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::explore_model;

    fn config(implementation: MpiImpl, protocol: Protocol) -> MpiConfig {
        MpiConfig { topology: Topology::Crossbar(2), protocol, implementation, payload: 1 }
    }

    #[test]
    fn eager_ping_pong_terminates() {
        let model = MpiModel::ping_pong(config(MpiImpl::Eager, Protocol::Msi));
        let e = explore_model(&model, 2_000_000).expect("explores");
        let done = e.states_where(|s| model.finished(s));
        assert!(!done.is_empty(), "the round trip must complete");
        // Terminal states are exactly the deadlocks of the LTS (the model
        // stops when both programs finish).
        let deadlocks = e.lts.deadlock_states();
        for d in &deadlocks {
            assert!(
                model.finished(&e.states[*d as usize]),
                "only completed rounds may be terminal"
            );
        }
        assert!(!deadlocks.is_empty());
    }

    #[test]
    fn rendezvous_ping_pong_terminates() {
        let model = MpiModel::ping_pong(config(MpiImpl::Rendezvous, Protocol::Mesi));
        let e = explore_model(&model, 2_000_000).expect("explores");
        let done = e.states_where(|s| model.finished(s));
        assert!(!done.is_empty());
        for d in e.lts.deadlock_states() {
            assert!(model.finished(&e.states[d as usize]));
        }
    }

    #[test]
    fn swmr_holds_along_mpi_execution() {
        use crate::fame2::coherence::swmr_holds;
        for proto in [Protocol::Msi, Protocol::Mesi] {
            for imp in [MpiImpl::Eager, MpiImpl::Rendezvous] {
                let model = MpiModel::ping_pong(config(imp, proto));
                let e = explore_model(&model, 2_000_000).expect("explores");
                for s in &e.states {
                    for lc in &s.caches {
                        assert!(swmr_holds(lc), "{proto} {imp}: violation in {s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn mesi_uses_silent_upgrades_msi_does_not() {
        let count_upgrades = |proto: Protocol| -> usize {
            let model = MpiModel::ping_pong(config(MpiImpl::Eager, proto));
            let e = explore_model(&model, 2_000_000).expect("explores");
            e.lts
                .iter_transitions()
                .filter(|&(_, l, _)| e.lts.labels().name(l).starts_with("WR_HIT"))
                .count()
        };
        // MESI: the prepared source lines are written from E silently.
        assert!(count_upgrades(Protocol::Mesi) > 0);
    }

    #[test]
    fn msi_needs_more_bus_transactions_than_mesi() {
        let bus_txns = |proto: Protocol| -> usize {
            let model = MpiModel::ping_pong(config(MpiImpl::Eager, proto));
            let e = explore_model(&model, 2_000_000).expect("explores");
            // Count UPG/WR issue labels on the shortest terminating path?
            // Simpler structural proxy: number of distinct UPG labels used.
            e.lts
                .used_labels()
                .into_iter()
                .filter(|&l| e.lts.labels().name(l).starts_with("UPG"))
                .count()
        };
        assert!(
            bus_txns(Protocol::Msi) > bus_txns(Protocol::Mesi),
            "MSI must pay upgrade transactions where MESI goes silent"
        );
    }

    #[test]
    fn polling_spins_until_flag_set() {
        let model = MpiModel::ping_pong(config(MpiImpl::Eager, Protocol::Msi));
        let e = explore_model(&model, 2_000_000).expect("explores");
        // POLL self-loops exist (rank 1 polls before rank 0 flags).
        let has_poll = e
            .lts
            .iter_transitions()
            .any(|(s, l, t)| s == t && e.lts.labels().name(l).starts_with("POLL"));
        assert!(has_poll, "the receiver must be able to spin on the flag");
    }

    #[test]
    fn temporal_properties_of_the_protocol() {
        use multival_mcl::{check, parse_formula, patterns, ActionFormula};
        let model = MpiModel::ping_pong(config(MpiImpl::Eager, Protocol::Msi));
        let e = explore_model(&model, 2_000_000).expect("explores");
        // A grant can never precede the first issue (RD/WR) on the bus.
        let no_early_grant = patterns::no_before(
            ActionFormula::pattern("GRANT*"),
            ActionFormula::Or(
                Box::new(ActionFormula::pattern("RD !*")),
                Box::new(ActionFormula::pattern("WR !*")),
            ),
        );
        assert!(check(&e.lts, &no_early_grant).expect("mc").holds);
        // Under MSI with a 1-line payload every access is a first-touch
        // miss, so no HIT label ever fires; under MESI the prepared source
        // line is written from E silently — reachable as a WR_HIT.
        let hit_reachable = parse_formula("mu X. <\"WR_HIT*\"> true or <true> X").expect("parses");
        assert!(!check(&e.lts, &hit_reachable).expect("mc").holds, "MSI: all misses");
        let mesi = MpiModel::ping_pong(config(MpiImpl::Eager, Protocol::Mesi));
        let em = explore_model(&mesi, 2_000_000).expect("explores");
        assert!(check(&em.lts, &hit_reachable).expect("mc").holds, "MESI: silent upgrade");
        // Flushes only happen while a transaction is in flight: no FLUSH
        // directly from the initial (quiescent) state.
        let no_idle_flush = parse_formula("[\"FLUSH*\"] false").expect("parses");
        assert!(check(&e.lts, &no_idle_flush).expect("mc").holds);
    }

    #[test]
    fn payload_scales_program_length() {
        let small =
            MpiModel::ping_pong(MpiConfig { payload: 1, ..config(MpiImpl::Eager, Protocol::Msi) });
        let large =
            MpiModel::ping_pong(MpiConfig { payload: 3, ..config(MpiImpl::Eager, Protocol::Msi) });
        assert!(large.programs[0].len() > small.programs[0].len());
        assert!(large.lines.len() > small.lines.len());
    }
}
