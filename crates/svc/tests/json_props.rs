//! Property tests for the service JSON codec: encode/decode round-trips,
//! canonical-form invariants, and total (panic-free) parsing of noise.

use multival_par::SplitMix64;
use multival_svc::json::{parse, Json};
use proptest::prelude::*;

// One `u64` seed expands into a whole random JSON document through the
// shared splitmix64 stream — the vendored proptest has no recursive
// strategy combinator, so the recursion lives here instead.

fn arb_string(rng: &mut SplitMix64) -> String {
    // Quotes, backslashes, control characters, and non-ASCII all exercise
    // the escaping paths.
    const ALPHABET: [char; 14] =
        ['a', 'b', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1b}', 'é', '‰', '𝄞', ' '];
    let len = rng.below(8);
    (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect()
}

fn arb_num(rng: &mut SplitMix64) -> f64 {
    match rng.below(5) {
        0 => 0.0,
        1 => rng.next_u64() as i32 as f64,
        2 => (rng.next_u64() % 1_000_000_000) as f64,
        3 => f64::from_bits(rng.next_u64() % (1 << 62)).abs() % 1e18,
        _ => -((rng.next_u64() % 10_000) as f64) / 97.0,
    }
}

fn arb_json(rng: &mut SplitMix64, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => {
            let x = arb_num(rng);
            Json::num(if x.is_finite() { x } else { 0.0 })
        }
        3 => Json::Str(arb_string(rng)),
        4 => {
            let n = rng.below(4);
            Json::Arr((0..n).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(4);
            Json::Obj(
                (0..n)
                    .map(|i| (format!("k{i}-{}", arb_string(rng)), arb_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encoding then parsing any value reproduces it exactly — including
    /// float bits, escaped strings, and nesting.
    #[test]
    fn encode_parse_roundtrip(seed in 0u64..u64::MAX) {
        let value = arb_json(&mut SplitMix64::new(seed), 4);
        let text = value.to_string();
        let back = parse(&text).expect("own encoding parses");
        prop_assert_eq!(&back, &value);
        // The encoding is a fixed point: re-encoding changes nothing.
        prop_assert_eq!(back.to_string(), text);
    }

    /// Canonicalization is idempotent and insensitive to member order.
    #[test]
    fn canonical_form_is_order_insensitive(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let value = arb_json(&mut rng, 3);
        let canon = value.canonicalized();
        prop_assert_eq!(canon.canonicalized().to_string(), canon.to_string());
        if let Json::Obj(members) = &value {
            let mut reversed = members.clone();
            reversed.reverse();
            prop_assert_eq!(
                Json::Obj(reversed).canonicalized().to_string(),
                canon.to_string()
            );
        }
    }

    /// The parser is total: arbitrary byte noise either parses or errors,
    /// but never panics — and whatever parses re-encodes cleanly.
    #[test]
    fn parser_never_panics_on_noise(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = parse(&text) {
            let _ = v.to_string();
        }
    }

    /// Numbers that overflow to infinity — and NaN/Infinity spellings —
    /// are rejected outright; a cache key must never contain them.
    #[test]
    fn non_finite_numbers_are_rejected(exp in 400u32..2000) {
        prop_assert!(parse(&format!("1e{exp}")).is_err());
        prop_assert!(parse(&format!("-1e{exp}")).is_err());
        prop_assert!(parse("NaN").is_err());
        prop_assert!(parse("Infinity").is_err());
        prop_assert!(parse("[1, NaN]").is_err());
    }
}
