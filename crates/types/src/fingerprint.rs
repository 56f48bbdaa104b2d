//! The process's one randomly keyed hasher (std's `RandomState`, drawn
//! once), and the statement fingerprints hashed with it: a statement's
//! canonical text is hashed once, when it is prepared, and the caches probe
//! with that fingerprint. Nothing is keyed on one across processes.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A fresh hasher under the process's key.
pub fn keyed_hasher() -> DefaultHasher {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new).build_hasher()
}

/// The 64-bit fingerprint of `text`: a function of its bytes alone for the
/// life of the process.
pub fn fingerprint(text: &str) -> u64 {
    let mut h = keyed_hasher();
    h.write(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_texts_share_a_fingerprint_and_bytes_hash_as_one_stream() {
        assert_eq!(fingerprint("SELECT 1"), fingerprint("SELECT 1"));
        assert_ne!(fingerprint("SELECT 1"), fingerprint("SELECT 2"));
        // Cache keys are hashed piecewise: however the bytes are split
        // across writes, the hash is the hash of their concatenation.
        let mut pieces = keyed_hasher();
        for piece in ["SEL", "ECT", " ", "1"] {
            pieces.write(piece.as_bytes());
        }
        assert_eq!(pieces.finish(), fingerprint("SELECT 1"));
    }
}
