//! Cross-crate checks of the parallel state-space engine: randomized
//! specs explored with 1 and 4 worker threads must produce *identical*
//! LTSs (the engine promises bit-identity, which is stronger than the
//! isomorphism the paper's flow needs).

use multival::lts::equiv::{equivalent, Verdict};
use multival::lts::io::write_aut;
use multival::lts::minimize::Equivalence;
use multival::pa::{explore_partial, parse_spec, ExploreOptions};
use proptest::prelude::*;

/// Decodes a byte genome into a closed mini-LOTOS behaviour. Every genome
/// decodes to a valid, finite spec, so the strategy never needs rejection
/// sampling; the decoder consumes bytes left to right and bottoms out on
/// `stop` when the budget runs dry.
fn decode_term(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> String {
    let gates = ["a", "b", "c"];
    let Some(&op) = bytes.next() else {
        return "stop".to_owned();
    };
    let gate = gates[(op / 8) as usize % 3];
    if depth == 0 {
        return format!("{gate}; stop");
    }
    match op % 6 {
        0 | 1 => format!("{gate}; {}", decode_term(bytes, depth - 1)),
        2 => format!("({} [] {})", decode_term(bytes, depth - 1), decode_term(bytes, depth - 1)),
        3 => format!("({} ||| {})", decode_term(bytes, depth - 1), decode_term(bytes, depth - 1)),
        4 => format!(
            "({} |[{gate}]| {})",
            decode_term(bytes, depth - 1),
            decode_term(bytes, depth - 1)
        ),
        // A data-carrying cyclic process: exercises guards, arithmetic,
        // and value-dependent labels in the parallel derivation workers.
        _ => format!("Cnt[{gate}, {}](0)", gates[(op / 8 + 1) as usize % 3]),
    }
}

fn decode_spec(genome: &[u8]) -> String {
    let mut bytes = genome.iter();
    format!(
        "process Cnt[up, down](n: int 0..5) :=
             [n < 5] -> up; Cnt[up, down](n + 1)
          [] [n > 0] -> down; Cnt[up, down](n - 1)
         endproc
         behaviour {}",
        decode_term(&mut bytes, 3)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_exploration_is_identical_on_random_specs(
        genome in prop::collection::vec(0u8..255, 1..24)
    ) {
        let src = decode_spec(&genome);
        let spec = parse_spec(&src).expect("decoder only emits valid specs");
        // Cap low enough to keep runtime sane; a hit must abort both runs
        // identically, so capped cases still assert something useful.
        let options = ExploreOptions::with_max_states(4_000);
        let seq = explore_partial(&spec, &options.clone().with_threads(1));
        let par = explore_partial(&spec, &options.with_threads(4));

        prop_assert_eq!(
            seq.aborted.as_ref().map(ToString::to_string),
            par.aborted.as_ref().map(ToString::to_string),
            "abort outcome diverged on {}", src
        );
        prop_assert_eq!(
            write_aut(&seq.explored.lts),
            write_aut(&par.explored.lts),
            "LTS diverged on {}", src
        );
        // Belt and braces: confirm equivalence through the independent
        // bisimulation checker, not just textual identity.
        if seq.aborted.is_none() {
            prop_assert!(matches!(
                equivalent(&seq.explored.lts, &par.explored.lts, Equivalence::Strong),
                Verdict::Equivalent
            ));
        }
    }
}
