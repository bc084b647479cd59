//! Content addressing: FNV-1a 64-bit over canonical request bytes.
//!
//! FNV-1a is tiny, dependency-free, and byte-order independent — exactly
//! what a deterministic cache key needs. Collisions are possible at 64
//! bits, so the cache stores the full canonical key next to each entry and
//! verifies it on every hit (see [`crate::cache`]).

/// FNV-1a 64-bit hash of `bytes` (the workspace's one implementation,
/// [`multival_lts::io::fnv1a`]).
///
/// # Examples
///
/// ```
/// use multival_svc::hash::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    multival_lts::io::fnv1a(bytes)
}

/// The hash as 16 lowercase hex digits (stable file / JSON key form).
#[must_use]
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_form_is_fixed_width() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(0xdead_beef), "00000000deadbeef");
        assert_eq!(hex16(fnv1a64(b"x")).len(), 16);
    }
}
