//! Interchange formats: Aldebaran (`.aut`, CADP's textual exchange
//! format), the compact binary **BLTS** format, and Graphviz (`.dot`).
//!
//! The Aldebaran format is line-oriented:
//!
//! ```text
//! des (0, 2, 2)
//! (0, "PUSH !1", 1)
//! (1, "i", 0)
//! ```
//!
//! where the header carries `(initial-state, #transitions, #states)`.
//!
//! BLTS is this crate's analogue of CADP's BCG: a varint/delta encoding
//! of the canonical transition order with an interned label table, at a
//! few bytes per transition instead of a ~20-byte text line. See
//! [`write_blts`] for the on-disk layout and DESIGN.md §9 for rationale.

use crate::label::{LabelId, LabelTable};
use crate::lts::{Lts, StateId};
use crate::vbyte::{read_uv, unzigzag, write_uv, zigzag};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error produced when parsing an Aldebaran file fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAutError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseAutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aut parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseAutError {}

/// Serializes an LTS in Aldebaran format.
///
/// # Examples
///
/// ```
/// use multival_lts::{equiv::lts_from_triples, io::{write_aut, read_aut}};
///
/// let lts = lts_from_triples(&[(0, "a", 1), (1, "i", 0)]);
/// let text = write_aut(&lts);
/// let back = read_aut(&text).expect("roundtrip");
/// assert_eq!(back.num_states(), 2);
/// assert_eq!(back.num_transitions(), 2);
/// ```
pub fn write_aut(lts: &Lts) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "des ({}, {}, {})", lts.initial(), lts.num_transitions(), lts.num_states());
    for (s, l, t) in lts.iter_transitions() {
        let _ = writeln!(out, "({}, \"{}\", {})", s, escape_label(lts.labels().name(l)), t);
    }
    out
}

/// Escapes a label for a quoted Aldebaran string: backslashes first, then
/// quotes, so the output re-parses unambiguously (and conforming third-party
/// readers agree). The old writer left backslashes bare, which a conforming
/// reader mis-interprets as escape introducers.
fn escape_label(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

/// Undoes [`escape_label`]: `\\` → `\`, `\"` → `"`. A backslash before any
/// other character is kept verbatim (leniency for files written by the old
/// writer, which never escaped backslashes).
fn unescape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.peek() {
                Some('\\') => {
                    out.push('\\');
                    chars.next();
                }
                Some('"') => {
                    out.push('"');
                    chars.next();
                }
                _ => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses an Aldebaran file into an LTS.
///
/// # Errors
///
/// Returns [`ParseAutError`] on malformed headers or transition lines, state
/// ids beyond the declared count, or a transition count mismatch.
pub fn read_aut(text: &str) -> Result<Lts, ParseAutError> {
    let mut lines = text.lines().enumerate();
    let (header_no, header) = lines
        .by_ref()
        .find(|(_, l)| !l.trim().is_empty())
        .ok_or(ParseAutError { line: 1, message: "empty file".into() })?;
    let header = header.trim();
    let inner = header
        .strip_prefix("des")
        .map(str::trim)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| ParseAutError {
            line: header_no + 1,
            message: format!("expected `des (init, ntrans, nstates)`, got `{header}`"),
        })?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    if parts.len() != 3 {
        return Err(ParseAutError {
            line: header_no + 1,
            message: "header must have three comma-separated fields".into(),
        });
    }
    let parse_num = |s: &str, line: usize| {
        s.parse::<u32>()
            .map_err(|_| ParseAutError { line, message: format!("invalid number `{s}`") })
    };
    let initial = parse_num(parts[0], header_no + 1)?;
    let ntrans = parse_num(parts[1], header_no + 1)? as usize;
    let nstates = parse_num(parts[2], header_no + 1)?;

    let mut labels = LabelTable::new();
    let mut transitions: Vec<(StateId, crate::label::LabelId, StateId)> = Vec::new();
    for (no, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let body = line.strip_prefix('(').and_then(|r| r.strip_suffix(')')).ok_or_else(|| {
            ParseAutError {
                line: no + 1,
                message: format!("expected `(src, \"label\", dst)`, got `{line}`"),
            }
        })?;
        // Split as: src , "label with possible commas" , dst
        let first_comma = body.find(',').ok_or_else(|| ParseAutError {
            line: no + 1,
            message: "missing comma after source state".into(),
        })?;
        let last_comma = body.rfind(',').ok_or_else(|| ParseAutError {
            line: no + 1,
            message: "missing comma before target state".into(),
        })?;
        if first_comma == last_comma {
            return Err(ParseAutError { line: no + 1, message: "expected three fields".into() });
        }
        let src = parse_num(body[..first_comma].trim(), no + 1)?;
        let dst = parse_num(body[last_comma + 1..].trim(), no + 1)?;
        let mut label = body[first_comma + 1..last_comma].trim();
        if label.len() >= 2 && label.starts_with('"') && label.ends_with('"') {
            label = &label[1..label.len() - 1];
        }
        let unescaped = unescape_label(label);
        if src >= nstates || dst >= nstates {
            return Err(ParseAutError {
                line: no + 1,
                message: format!("state id out of range (declared {nstates} states)"),
            });
        }
        transitions.push((src, labels.intern(&unescaped), dst));
    }
    if transitions.len() != ntrans {
        return Err(ParseAutError {
            line: header_no + 1,
            message: format!(
                "header declares {ntrans} transitions but {} were found",
                transitions.len()
            ),
        });
    }
    if initial >= nstates.max(1) {
        return Err(ParseAutError {
            line: header_no + 1,
            message: "initial state out of range".into(),
        });
    }
    Ok(Lts::from_parts(labels, nstates.max(1), initial, transitions))
}

// ---------------------------------------------------------------------------
// BLTS: compact binary LTS format

/// Magic bytes opening every BLTS file.
pub const BLTS_MAGIC: [u8; 4] = *b"BLTS";

/// Current BLTS format version.
pub const BLTS_VERSION: u8 = 1;

/// Source states per chunk in the streaming layout.
const BLTS_CHUNK_STATES: usize = 4096;

/// Transition count at which a chunk closes early (after finishing the
/// current state), bounding decoded chunk size for dense graphs.
const BLTS_CHUNK_TRANS: usize = 65_536;

/// Error produced when decoding a BLTS buffer fails. Every malformed,
/// truncated, or corrupted input is reported through this type — the
/// decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BltsError {
    /// Byte offset at which decoding failed (best effort).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for BltsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blts decode error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for BltsError {}

/// FNV-1a 64-bit hash of `bytes`: the BLTS trailer checksum, the
/// reduction pipeline's checkpoint fingerprints and the service's cache
/// keys. Tiny, dependency-free and byte-order independent.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes an LTS in BLTS format.
///
/// Layout (all integers LEB128 varints unless noted):
///
/// ```text
/// "BLTS"  version(1 byte)
/// initial  nstates  ntrans  nlabels
/// nlabels × ( len, utf8 bytes )          -- label table in id order
/// state chunks until nstates consumed:
///   cstates  ctrans                       -- consecutive source states
///   column "degrees"                      -- cstates × outdegree
///   column "labels"                       -- ctrans × label delta
///   column "targets"                      -- ctrans × target delta
/// checksum (8 bytes LE)                   -- FNV-1a 64 of everything above
/// ```
///
/// Each column is `raw_len, comp_len, comp_len bytes` — LZSS-compressed
/// ([`crate::lzss`]) when that is smaller, stored verbatim otherwise
/// (signalled by `comp_len == raw_len`). Column-major layout keeps each
/// stream self-similar, which is what makes LZSS effective here.
///
/// Transitions follow the canonical per-state `(label, dst)` order of
/// [`Lts::transitions_from`]. Within a state, labels are zigzag
/// delta-coded against the previous label (starting from 0); targets are
/// zigzag delta-coded against the source state at each label change and
/// plain delta-coded against the previous target inside a label run
/// (where the canonical sort makes them nondecreasing). Decoding rebuilds
/// the exact same LTS: `write_aut(read_blts(write_blts(l))) == write_aut(l)`.
///
/// # Examples
///
/// ```
/// use multival_lts::equiv::lts_from_triples;
/// use multival_lts::io::{read_blts, write_aut, write_blts};
///
/// let lts = lts_from_triples(&[(0, "PUSH !1", 1), (1, "i", 0)]);
/// let bytes = write_blts(&lts);
/// let back = read_blts(&bytes).expect("roundtrip");
/// assert_eq!(write_aut(&back), write_aut(&lts));
/// ```
pub fn write_blts(lts: &Lts) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + lts.num_transitions());
    out.extend_from_slice(&BLTS_MAGIC);
    out.push(BLTS_VERSION);
    write_uv(&mut out, u64::from(lts.initial()));
    write_uv(&mut out, lts.num_states() as u64);
    write_uv(&mut out, lts.num_transitions() as u64);
    write_uv(&mut out, lts.labels().len() as u64);
    for (_, name) in lts.labels().iter() {
        write_uv(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    let nstates = lts.num_states() as u32;
    let mut first = 0u32;
    let (mut degrees, mut labcol, mut dstcol) = (Vec::new(), Vec::new(), Vec::new());
    while first < nstates {
        let mut last = first;
        let mut ctrans = 0usize;
        while last < nstates
            && (last - first) < BLTS_CHUNK_STATES as u32
            && ctrans < BLTS_CHUNK_TRANS
        {
            ctrans += lts.transitions_from(last).len();
            last += 1;
        }
        degrees.clear();
        labcol.clear();
        dstcol.clear();
        for s in first..last {
            let trans = lts.transitions_from(s);
            write_uv(&mut degrees, trans.len() as u64);
            let mut prev_label = 0i64;
            let mut run_label = u64::MAX;
            let mut prev_dst: StateId = 0;
            for t in trans {
                let l = t.label.index() as u64;
                write_uv(&mut labcol, zigzag(l as i64 - prev_label));
                if l == run_label {
                    write_uv(&mut dstcol, u64::from(t.target - prev_dst));
                } else {
                    write_uv(&mut dstcol, zigzag(i64::from(t.target) - i64::from(s)));
                }
                prev_label = l as i64;
                run_label = l;
                prev_dst = t.target;
            }
        }
        write_uv(&mut out, u64::from(last - first));
        write_uv(&mut out, ctrans as u64);
        for col in [&degrees, &labcol, &dstcol] {
            write_column(&mut out, col);
        }
        first = last;
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Writes one column: `raw_len, comp_len, bytes`, compressed only when
/// that wins (`comp_len == raw_len` means stored verbatim).
fn write_column(out: &mut Vec<u8>, raw: &[u8]) {
    let comp = crate::lzss::compress(raw);
    write_uv(out, raw.len() as u64);
    if comp.len() < raw.len() {
        write_uv(out, comp.len() as u64);
        out.extend_from_slice(&comp);
    } else {
        write_uv(out, raw.len() as u64);
        out.extend_from_slice(raw);
    }
}

/// One decoded transition: source, label, target.
pub type BltsTransition = (StateId, LabelId, StateId);

/// Streaming BLTS decoder: parses the header and label table eagerly,
/// then yields transitions chunk by chunk, so consumers that fold or
/// filter transitions never hold the whole decoded list (resident memory
/// stays bounded by one decoded chunk).
///
/// The trailer checksum is verified up front (the input is already in
/// memory, so the pass is cheap); chunk decoding then only validates
/// structure and ranges.
pub struct BltsReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Initial state.
    pub initial: StateId,
    /// Declared state count.
    pub num_states: u32,
    /// Declared transition count.
    pub num_transitions: usize,
    /// Decoded label table.
    pub labels: LabelTable,
    next_state: u32,
    trans_seen: usize,
    failed: bool,
    chunk: Vec<BltsTransition>,
}

impl<'a> BltsReader<'a> {
    /// Parses the header, label table, and trailer checksum.
    ///
    /// # Errors
    ///
    /// Returns [`BltsError`] on bad magic, unsupported version, checksum
    /// mismatch, truncation, or malformed header fields.
    pub fn new(bytes: &'a [u8]) -> Result<Self, BltsError> {
        let fail = |offset: usize, message: &str| BltsError { offset, message: message.into() };
        if bytes.len() < 5 || bytes[..4] != BLTS_MAGIC {
            return Err(fail(0, "not a BLTS file (bad magic)"));
        }
        if bytes[4] != BLTS_VERSION {
            return Err(fail(4, "unsupported BLTS version"));
        }
        if bytes.len() < 13 {
            return Err(fail(bytes.len(), "truncated before checksum trailer"));
        }
        let body = &bytes[..bytes.len() - 8];
        let declared =
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte trailer"));
        if fnv1a(body) != declared {
            return Err(fail(bytes.len() - 8, "checksum mismatch (corrupted file)"));
        }
        let mut pos = 5;
        let uv = |pos: &mut usize, what: &str| {
            read_uv(body, pos).ok_or_else(|| fail(*pos, &format!("truncated {what}")))
        };
        let initial = uv(&mut pos, "initial state")?;
        let num_states = uv(&mut pos, "state count")?;
        let num_transitions = uv(&mut pos, "transition count")?;
        let num_labels = uv(&mut pos, "label count")?;
        if num_states == 0 || num_states > u64::from(u32::MAX) {
            return Err(fail(pos, "state count out of range"));
        }
        if initial >= num_states {
            return Err(fail(pos, "initial state out of range"));
        }
        if num_labels == 0 || num_labels > u64::from(u32::MAX) {
            return Err(fail(pos, "label count out of range"));
        }
        let mut labels = LabelTable::new();
        for i in 0..num_labels {
            let len = uv(&mut pos, "label length")? as usize;
            let end = pos.checked_add(len).filter(|&e| e <= body.len());
            let end = end.ok_or_else(|| fail(pos, "truncated label bytes"))?;
            let name = std::str::from_utf8(&body[pos..end])
                .map_err(|_| fail(pos, "label is not valid UTF-8"))?;
            pos = end;
            if i == 0 {
                if name != crate::label::TAU_NAME {
                    return Err(fail(pos, "label 0 must be the internal action"));
                }
            } else if labels.intern(name).index() as u64 != i {
                return Err(fail(pos, "duplicate or misnumbered label"));
            }
        }
        Ok(BltsReader {
            bytes: body,
            pos,
            initial: initial as StateId,
            num_states: num_states as u32,
            num_transitions: num_transitions as usize,
            labels,
            next_state: 0,
            trans_seen: 0,
            failed: false,
            chunk: Vec::new(),
        })
    }

    /// Decodes the next chunk of transitions, or `None` when every state
    /// chunk has been consumed (or after an error has been reported).
    ///
    /// # Errors
    ///
    /// Returns [`BltsError`] on truncation, out-of-range endpoints or
    /// labels, or a chunk/total count mismatch.
    pub fn next_chunk(&mut self) -> Option<Result<&[BltsTransition], BltsError>> {
        if self.failed {
            return None;
        }
        if self.next_state == self.num_states {
            self.failed = true; // terminal either way: report at most once
            if self.pos != self.bytes.len() {
                return Some(Err(BltsError {
                    offset: self.pos,
                    message: "trailing bytes after final chunk".into(),
                }));
            }
            if self.trans_seen != self.num_transitions {
                return Some(Err(BltsError {
                    offset: self.pos,
                    message: format!(
                        "header declares {} transitions but chunks carried {}",
                        self.num_transitions, self.trans_seen
                    ),
                }));
            }
            return None;
        }
        match self.decode_chunk() {
            Ok(()) => Some(Ok(&self.chunk)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    /// Reads one column (`raw_len, comp_len, bytes`) into owned bytes,
    /// decompressing when `comp_len < raw_len`. `cap` bounds `raw_len`
    /// against absurd allocations from crafted headers.
    fn read_column(&mut self, cap: usize, what: &str) -> Result<Vec<u8>, BltsError> {
        let fail = |offset: usize, message: String| BltsError { offset, message };
        let raw_len = read_uv(self.bytes, &mut self.pos)
            .ok_or_else(|| fail(self.pos, format!("truncated {what} column length")))?
            as usize;
        if raw_len > cap {
            return Err(fail(self.pos, format!("{what} column length {raw_len} out of range")));
        }
        let comp_len = read_uv(self.bytes, &mut self.pos)
            .ok_or_else(|| fail(self.pos, format!("truncated {what} column length")))?
            as usize;
        if comp_len > raw_len {
            return Err(fail(
                self.pos,
                format!("{what} column over-long ({comp_len} > {raw_len})"),
            ));
        }
        let start = self.pos;
        let end = start
            .checked_add(comp_len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| fail(start, format!("truncated {what} column bytes")))?;
        self.pos = end;
        let slice = &self.bytes[start..end];
        if comp_len == raw_len {
            return Ok(slice.to_vec());
        }
        crate::lzss::decompress(slice, raw_len)
            .ok_or_else(|| fail(start, format!("corrupted {what} column")))
    }

    fn decode_chunk(&mut self) -> Result<(), BltsError> {
        let fail = |offset: usize, message: String| BltsError { offset, message };
        let uv = |bytes: &[u8], pos: &mut usize, what: &str| {
            read_uv(bytes, pos).ok_or_else(|| fail(*pos, format!("truncated {what}")))
        };
        // Counts come from untrusted varints: compare against what is left
        // (never add to them) so no crafted value can wrap the checks.
        let cstates = uv(self.bytes, &mut self.pos, "chunk state count")? as usize;
        if cstates == 0 || cstates > (self.num_states - self.next_state) as usize {
            return Err(fail(self.pos, format!("chunk state count {cstates} out of range")));
        }
        let ctrans = uv(self.bytes, &mut self.pos, "chunk transition count")? as usize;
        if ctrans > self.num_transitions - self.trans_seen {
            return Err(fail(self.pos, format!("chunk transition count {ctrans} out of range")));
        }
        // Varints in these columns are at most 10 bytes each.
        let degrees = self.read_column(cstates.saturating_mul(10), "degree")?;
        let labcol = self.read_column(ctrans.saturating_mul(10), "label")?;
        let dstcol = self.read_column(ctrans.saturating_mul(10), "target")?;
        let (mut dp, mut lp, mut tp) = (0usize, 0usize, 0usize);
        self.chunk.clear();
        // Every transition takes at least one label byte: reserve no more
        // than the decoded column can hold.
        self.chunk.reserve(ctrans.min(labcol.len()));
        let err_at = self.pos;
        for i in 0..cstates {
            let s = self.next_state + i as u32;
            let degree = uv(&degrees, &mut dp, "outdegree")?;
            if self.chunk.len() as u64 + degree > ctrans as u64 {
                return Err(fail(err_at, format!("outdegree {degree} exceeds chunk count")));
            }
            let mut prev_label = 0i64;
            let mut run_label = i64::MIN;
            let mut prev_dst: StateId = 0;
            for _ in 0..degree {
                let label = prev_label
                    .checked_add(unzigzag(uv(&labcol, &mut lp, "label delta")?))
                    .filter(|&l| l >= 0 && l < self.labels.len() as i64)
                    .ok_or_else(|| fail(err_at, "label id out of range".into()))?;
                let raw = uv(&dstcol, &mut tp, "target delta")?;
                let dst = if label == run_label {
                    u64::from(prev_dst).checked_add(raw)
                } else {
                    i64::from(s).checked_add(unzigzag(raw)).and_then(|d| u64::try_from(d).ok())
                };
                let dst = dst
                    .filter(|&d| d < u64::from(self.num_states))
                    .ok_or_else(|| fail(err_at, "target state out of range".into()))?
                    as StateId;
                prev_label = label;
                run_label = label;
                prev_dst = dst;
                self.chunk.push((s, LabelId(label as u32), dst));
            }
        }
        if self.chunk.len() != ctrans {
            return Err(fail(err_at, "chunk degrees disagree with transition count".into()));
        }
        if dp != degrees.len() || lp != labcol.len() || tp != dstcol.len() {
            return Err(fail(err_at, "column bytes left over after chunk".into()));
        }
        self.next_state += cstates as u32;
        self.trans_seen += ctrans;
        Ok(())
    }
}

/// Parses a BLTS buffer into an [`Lts`] via the streaming reader.
///
/// # Errors
///
/// Returns [`BltsError`] on any malformed, truncated, or corrupted input
/// (see [`BltsReader`]); never panics.
pub fn read_blts(bytes: &[u8]) -> Result<Lts, BltsError> {
    let mut reader = BltsReader::new(bytes)?;
    // The header's transition count is untrusted: reserve no more than the
    // input length can justify and let a genuine larger LTS grow the Vec.
    let mut transitions = Vec::with_capacity(reader.num_transitions.min(bytes.len()));
    while let Some(chunk) = reader.next_chunk() {
        transitions.extend_from_slice(chunk?);
    }
    if transitions.len() != reader.num_transitions {
        return Err(BltsError {
            offset: bytes.len(),
            message: format!(
                "header declares {} transitions but {} were decoded",
                reader.num_transitions,
                transitions.len()
            ),
        });
    }
    // All endpoints and labels were range-checked during decoding, so
    // `from_parts` cannot panic here.
    Ok(Lts::from_parts(reader.labels, reader.num_states, reader.initial, transitions))
}

/// Serializes an LTS as a Graphviz digraph (for visual inspection of small
/// state spaces). τ edges are drawn dashed.
pub fn write_dot(lts: &Lts, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle];");
    let _ = writeln!(out, "  s{} [style=bold];", lts.initial());
    for s in 0..lts.num_states() as StateId {
        if lts.transitions_from(s).is_empty() {
            let _ = writeln!(out, "  s{s} [shape=doublecircle];");
        }
    }
    for (s, l, t) in lts.iter_transitions() {
        let label = escape_label(lts.labels().name(l));
        let style = if l.is_tau() { ", style=dashed" } else { "" };
        let _ = writeln!(out, "  s{s} -> s{t} [label=\"{label}\"{style}];");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::lts_from_triples;

    #[test]
    fn roundtrip_preserves_structure() {
        let lts = lts_from_triples(&[(0, "PUSH !1 !true", 1), (1, "i", 2), (2, "POP !1", 0)]);
        let text = write_aut(&lts);
        let back = read_aut(&text).expect("roundtrip parses");
        assert_eq!(back.num_states(), lts.num_states());
        assert_eq!(back.num_transitions(), lts.num_transitions());
        assert_eq!(back.initial(), lts.initial());
        let names: Vec<_> =
            back.iter_transitions().map(|(_, l, _)| back.labels().name(l).to_owned()).collect();
        assert!(names.contains(&"PUSH !1 !true".to_owned()));
        assert!(names.contains(&"i".to_owned()));
    }

    #[test]
    fn label_with_comma_roundtrips() {
        let lts = lts_from_triples(&[(0, "SEND !pair(1, 2)", 1)]);
        let back = read_aut(&write_aut(&lts)).expect("comma label parses");
        let (_, l, _) = back.iter_transitions().next().expect("one transition");
        assert_eq!(back.labels().name(l), "SEND !pair(1, 2)");
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_aut("hello").is_err());
        assert!(read_aut("des (0, 1)").is_err());
        assert!(read_aut("des (x, 1, 2)").is_err());
    }

    #[test]
    fn rejects_count_mismatch() {
        let err = read_aut("des (0, 2, 2)\n(0, \"a\", 1)\n").expect_err("mismatch");
        assert!(err.message.contains("declares 2 transitions"));
    }

    #[test]
    fn rejects_out_of_range_state() {
        let err = read_aut("des (0, 1, 2)\n(0, \"a\", 5)\n").expect_err("range");
        assert!(err.message.contains("out of range"));
    }

    /// A medium LTS (>4096 states, so BLTS streams in several chunks)
    /// with realistic multi-offer labels, for BLTS tests.
    fn medium_lts() -> Lts {
        let mut b = crate::lts::LtsBuilder::new();
        let n = 5_000u32;
        for _ in 0..n {
            b.add_state();
        }
        for s in 0..n {
            b.add_transition(s, &format!("FORWARD !{} !req !sample", s % 11), (s + 1) % n);
            b.add_transition(s, &format!("HANDOUT !{} !false", s % 5), (s + 13) % n);
            if s % 3 == 0 {
                b.add_transition(s, "i", s);
            }
        }
        b.build(0)
    }

    #[test]
    fn blts_roundtrip_is_canonical() {
        let lts = medium_lts();
        let bytes = write_blts(&lts);
        let back = read_blts(&bytes).expect("roundtrip");
        assert_eq!(write_aut(&lts), write_aut(&back));
    }

    #[test]
    fn blts_is_a_tenth_of_aut() {
        let lts = medium_lts();
        let aut = write_aut(&lts);
        let blts = write_blts(&lts);
        assert!(
            blts.len() * 10 <= aut.len(),
            "blts {} bytes vs aut {} bytes",
            blts.len(),
            aut.len()
        );
    }

    #[test]
    fn blts_streaming_reader_chunks_cover_everything() {
        let lts = medium_lts();
        let bytes = write_blts(&lts);
        let mut reader = BltsReader::new(&bytes).expect("header");
        assert_eq!(reader.num_states as usize, lts.num_states());
        let mut total = 0;
        let mut chunks = 0;
        while let Some(chunk) = reader.next_chunk() {
            total += chunk.expect("chunk decodes").len();
            chunks += 1;
        }
        assert_eq!(total, lts.num_transitions());
        assert!(chunks > 1, "a {total}-transition LTS must stream in several chunks");
    }

    #[test]
    fn blts_truncation_errors_at_every_length() {
        let lts = medium_lts();
        let bytes = write_blts(&lts);
        // Every strict prefix must fail cleanly (no panic, no success):
        // sample densely at the front and sparsely across the body.
        for len in (0..64).chain((64..bytes.len()).step_by(97)) {
            assert!(read_blts(&bytes[..len]).is_err(), "prefix of {len} bytes accepted");
        }
    }

    #[test]
    fn blts_corruption_is_detected() {
        let lts = medium_lts();
        let bytes = write_blts(&lts);
        for pos in (0..bytes.len()).step_by(53) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            assert!(read_blts(&bad).is_err(), "flip at byte {pos} accepted");
        }
    }

    #[test]
    fn blts_rejects_bad_magic_and_version() {
        let lts = medium_lts();
        let mut bytes = write_blts(&lts);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_blts(&bad), Err(e) if e.message.contains("magic")));
        bytes[4] = 9;
        assert!(matches!(read_blts(&bytes), Err(e) if e.message.contains("version")));
        assert!(read_blts(b"").is_err());
        assert!(read_blts(b"BLTS").is_err());
    }

    /// Rewrites header field `field` (0 initial, 1 states, 2 transitions,
    /// 3 labels) of a BLTS file to `value` and recomputes the trailer —
    /// the checksum guards integrity, not hostility.
    fn patch_header(bytes: &[u8], field: usize, value: u64) -> Vec<u8> {
        let body = &bytes[..bytes.len() - 8];
        let mut pos = 5;
        let mut out = body[..5].to_vec();
        for i in 0..4 {
            let v = read_uv(body, &mut pos).expect("header varint");
            write_uv(&mut out, if i == field { value } else { v });
        }
        out.extend_from_slice(&body[pos..]);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn blts_huge_transition_count_is_an_error() {
        // Reproducer: a 2^62 transition count used to size the transition
        // Vec up front and abort with `capacity overflow`.
        let bytes = write_blts(&medium_lts());
        let err = read_blts(&patch_header(&bytes, 2, 1 << 62)).expect_err("hostile count");
        assert!(err.message.contains("transitions"), "{}", err.message);
        for field in 0..4 {
            assert!(read_blts(&patch_header(&bytes, field, u64::MAX)).is_err(), "field {field}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Header counts no input of this size can justify — up to
        /// `u64::MAX` — give an error, never a panic or a huge allocation.
        #[test]
        fn blts_hostile_header_counts_are_errors(
            field in 0usize..4,
            shift in 0u32..64,
            low in 0u64..4096,
        ) {
            let lts = lts_from_triples(&[(0, "a !1", 1), (1, "i", 2), (2, "b", 0), (2, "a !2", 1)]);
            let bytes = write_blts(&lts);
            let value = (u64::MAX >> shift).saturating_sub(low).max(bytes.len() as u64 + 1);
            proptest::prop_assert!(read_blts(&patch_header(&bytes, field, value)).is_err());
        }
    }

    #[test]
    fn dot_output_mentions_all_edges() {
        let lts = lts_from_triples(&[(0, "a", 1), (1, "i", 0)]);
        let dot = write_dot(&lts, "test");
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn escaped_quotes_roundtrip() {
        let lts = lts_from_triples(&[(0, "SAY !\"hi\"", 1)]);
        let back = read_aut(&write_aut(&lts)).expect("quoted label parses");
        let (_, l, _) = back.iter_transitions().next().expect("one transition");
        assert_eq!(back.labels().name(l), "SAY !\"hi\"");
    }

    #[test]
    fn backslashes_are_escaped_on_write_and_roundtrip() {
        // Every mix of backslashes, quotes, and spaces must survive a
        // write/read cycle, and the written form must escape backslashes so
        // conforming Aldebaran readers agree on the label.
        for name in [r"a\b", r"a\\b", r"end\", r#"\""#, r#"mix \"q\" uo"#, r"  spaced \ out  "] {
            let lts = lts_from_triples(&[(0, name, 1)]);
            let text = write_aut(&lts);
            let back = read_aut(&text).expect("escaped label parses");
            let (_, l, _) = back.iter_transitions().next().expect("one transition");
            assert_eq!(back.labels().name(l), name, "roundtrip of {name:?} via {text}");
        }
        let lts = lts_from_triples(&[(0, r"a\b", 1)]);
        assert!(write_aut(&lts).contains(r"a\\b"), "bare backslash must be written escaped");
    }

    #[test]
    fn conforming_escaped_backslash_is_unescaped() {
        // A file written by a conforming tool: `\\` denotes one backslash.
        let lts = read_aut("des (0, 1, 2)\n(0, \"a\\\\b\", 1)\n").expect("parses");
        let (_, l, _) = lts.iter_transitions().next().expect("one transition");
        assert_eq!(lts.labels().name(l), r"a\b");
    }

    #[test]
    fn legacy_bare_backslash_still_parses() {
        // Files written by the pre-escaping writer left backslashes bare; a
        // lone backslash before an ordinary character is kept verbatim.
        let lts = read_aut("des (0, 1, 2)\n(0, \"a\\b\", 1)\n").expect("parses");
        let (_, l, _) = lts.iter_transitions().next().expect("one transition");
        assert_eq!(lts.labels().name(l), r"a\b");
    }
}
