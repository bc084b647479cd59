//! Differential and property coverage for the pluggable state-store
//! exploration backends and the compact binary BLTS format.
//!
//! The store-backed explorer promises *byte-identical* canonical LTSs —
//! same state numbering, same transition order — whatever backend holds
//! the dedup table and however many worker threads derive successors.
//! These tests pin that promise on models from the paper's three case
//! studies, and pin the BLTS codec against the Aldebaran text format on
//! random LTSs.

use multival::cli::{execute, parse_args};
use multival::lts::io::{fnv1a, read_aut, read_blts, write_aut, write_blts};
use multival::lts::store::{StoreConfig, StoreKind};
use multival::lts::vbyte::{read_uv, write_uv};
use multival::lts::{Lts, LtsBuilder};
use multival::models::fame2::network::ping_pong_source;
use multival::models::faust::mesh::complement_source_n;
use multival::models::faust::noc::single_packet_source;
use multival::models::xstream::pipeline::library;
use multival::pa::{explore, explore_term_store, parse_behaviour, parse_spec, ExploreOptions};
use proptest::prelude::*;

/// An xSTream-style flat pipeline assembled from the component library:
/// producer → queue → queue → consumer with the interior gate hidden.
const XSTREAM_FLAT: &str = "hide m in ( Producer[push] |[push]| ( Queue[push, m](0, 2) \
     |[m]| ( Queue[m, pop](0, 2) |[pop]| Consumer[pop] ) ) )";

/// One flat model per case study: xSTream pipeline, FAME2 ping-pong,
/// FAUST NoC (single packet plus the flow-controlled 2×2 complement mesh).
fn case_studies() -> Vec<(&'static str, multival::pa::Spec)> {
    let xstream = {
        let mut spec = library();
        let top = parse_behaviour(XSTREAM_FLAT, &spec).expect("xstream top parses");
        spec.set_top(top);
        spec
    };
    vec![
        ("xstream_pipeline", xstream),
        ("fame2_ping_pong", parse_spec(&ping_pong_source(2)).expect("parses")),
        ("faust_single_packet", parse_spec(&single_packet_source(3)).expect("parses")),
        ("faust_complement_2x2", parse_spec(&complement_source_n(2, Some(2))).expect("parses")),
    ]
}

/// Every backend × worker count × (tight or absent) memory budget yields
/// the byte-identical canonical LTS the classic explorer produces.
#[test]
fn backends_and_workers_agree_on_case_study_models() {
    for (name, spec) in case_studies() {
        let baseline =
            write_aut(&explore(&spec, &ExploreOptions::default()).expect("explores").lts);
        for kind in StoreKind::ALL {
            for threads in [1usize, 4] {
                // A 1-byte budget forces the spill backend to page on
                // every segment; the others ignore it.
                for mem_budget in [None, Some(1)] {
                    let options = ExploreOptions::default().with_threads(threads);
                    let config = StoreConfig { kind, mem_budget };
                    let lts = explore_term_store(spec.top().clone(), &spec, &options, &config)
                        .expect("explores");
                    assert_eq!(
                        baseline,
                        write_aut(&lts),
                        "{name}: {kind:?} × {threads} threads × budget {mem_budget:?} \
                         must match the classic explorer byte for byte"
                    );
                }
            }
        }
    }
}

/// Strategy: a random LTS over a small alphabet with states kept
/// reachable by a spanning chain (mirrors `properties.rs`).
fn arb_lts(max_states: usize) -> impl Strategy<Value = Lts> {
    let labels = prop::sample::select(vec!["a", "b!1", "i", "long label with spaces"]);
    (2..=max_states).prop_flat_map(move |n| {
        let chain = prop::collection::vec(labels.clone(), n - 1);
        let extra = prop::collection::vec((0..n as u32, labels.clone(), 0..n as u32), 0..(3 * n));
        (chain, extra).prop_map(move |(chain, extra)| {
            let mut b = LtsBuilder::new();
            for _ in 0..n {
                b.add_state();
            }
            for (i, l) in chain.iter().enumerate() {
                b.add_transition(i as u32, l, i as u32 + 1);
            }
            for (s, l, t) in extra {
                b.add_transition(s, l, t);
            }
            b.build(0)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `.aut` and BLTS are interchangeable carriers. BLTS preserves label
    /// ids exactly, so it round-trips any render byte-identically; `.aut`
    /// re-interns labels in first-occurrence order, so its render reaches
    /// a fixpoint after one pass — and BLTS agrees on that canonical form.
    #[test]
    fn aut_and_blts_roundtrips_are_byte_identical(lts in arb_lts(24)) {
        let direct = write_aut(&lts);
        let via_blts = read_blts(&write_blts(&lts)).expect("BLTS decodes");
        prop_assert_eq!(&direct, &write_aut(&via_blts));

        let canonical_lts = read_aut(&direct).expect(".aut parses");
        let canonical = write_aut(&canonical_lts);
        let again = read_aut(&canonical).expect("canonical .aut parses");
        prop_assert_eq!(&canonical, &write_aut(&again));
        let via_both = read_blts(&write_blts(&canonical_lts)).expect("BLTS decodes");
        prop_assert_eq!(&canonical, &write_aut(&via_both));
    }
}

/// The committed CI smoke model must track the mesh generator: CI reduces
/// `examples/mesh_3x3.lot` under a memory budget, so drift between the
/// file and `complement_source_n` would silently change what CI exercises.
#[test]
fn committed_3x3_mesh_model_matches_the_generator() {
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples/mesh_3x3.lot");
    let want = complement_source_n(3, Some(2));
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, &want).expect("write model");
        return;
    }
    let got = std::fs::read_to_string(&path).expect("committed examples/mesh_3x3.lot");
    assert_eq!(
        got, want,
        "examples/mesh_3x3.lot drifted from complement_source_n(3, Some(2)); \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// A BLTS whose header claims 2^62 transitions (trailer recomputed: the
/// checksum guards integrity, not hostility) is a decode error for the
/// reader and for `multival explore`, not an allocation abort.
#[test]
fn hostile_blts_transition_count_is_a_decode_error() {
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples/xmas_fab_3.lot");
    let text = std::fs::read_to_string(&path).expect("committed examples/xmas_fab_3.lot");
    let spec = parse_spec(&text).expect("parses");
    let bytes = write_blts(&explore(&spec, &ExploreOptions::default()).expect("explores").lts);
    // Header: magic, version, then varints initial / states / transitions.
    let body = &bytes[..bytes.len() - 8];
    let mut pos = 5;
    let mut hostile = body[..5].to_vec();
    for field in 0..3 {
        let v = read_uv(body, &mut pos).expect("header varint");
        write_uv(&mut hostile, if field == 2 { 1 << 62 } else { v });
    }
    hostile.extend_from_slice(&body[pos..]);
    let sum = fnv1a(&hostile);
    hostile.extend_from_slice(&sum.to_le_bytes());
    assert!(read_blts(&hostile).is_err(), "hostile transition count accepted");

    let file = std::env::temp_dir().join(format!("multival-hostile-{}.blts", std::process::id()));
    std::fs::write(&file, &hostile).expect("writes");
    let cmd = parse_args(&["explore".to_owned(), file.display().to_string()]).expect("parses");
    let outcome = execute(&cmd);
    let _ = std::fs::remove_file(&file);
    let err = outcome.expect_err("explore must reject the file").to_string();
    assert!(err.contains("transitions"), "{err}");
}

/// Decoding must fail loudly — never panic, never return a mangled LTS —
/// on every truncation and on single-byte corruption of a real file.
#[test]
fn blts_decode_rejects_truncation_and_corruption() {
    let spec = parse_spec(&single_packet_source(3)).expect("parses");
    let lts = explore(&spec, &ExploreOptions::default()).expect("explores").lts;
    let bytes = write_blts(&lts);
    let canonical = write_aut(&lts);
    for len in 0..bytes.len() {
        assert!(read_blts(&bytes[..len]).is_err(), "truncation at {len} must error");
    }
    // Flip one byte at a stride through the file: the checksum trailer
    // (or an earlier structural check) must catch every flip.
    for pos in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x41;
        match read_blts(&bad) {
            Err(_) => {}
            Ok(decoded) => assert_eq!(
                write_aut(&decoded),
                canonical,
                "an accepted flip at {pos} must still decode to the same LTS"
            ),
        }
    }
}
