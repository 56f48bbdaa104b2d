//! The two-part key the plan cache and the result cache share: a statement
//! text and a parameter signature.
//!
//! A cache holds its keys as `Arc<TextKey>` (a recency list and an
//! invalidation index both point at the same key), and is probed with a
//! borrowed `(&str, &str)`: the [`Borrow`] impl below lets a `HashMap`
//! compare the two without building an owned key per probe.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An owned `(statement text, parameter signature)` key.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TextKey {
    pub text: String,
    pub sig: String,
}

impl TextKey {
    pub fn new(text: &str, sig: &str) -> Arc<TextKey> {
        Arc::new(TextKey {
            text: text.to_string(),
            sig: sig.to_string(),
        })
    }
}

/// Anything that can be read as the two parts of a key.
pub(crate) trait KeyParts {
    fn parts(&self) -> (&str, &str);
}

impl KeyParts for TextKey {
    fn parts(&self) -> (&str, &str) {
        (&self.text, &self.sig)
    }
}

impl KeyParts for (&str, &str) {
    fn parts(&self) -> (&str, &str) {
        *self
    }
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// An owned key hashes as its parts do, so the map finds it under either.
impl Hash for TextKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for Arc<TextKey> {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        &**self
    }
}

/// The hash of a key's parts: picks a cache shard, and stands for the key in
/// the result cache's miss-frequency sketch.
pub(crate) fn hash_of(text: &str, sig: &str) -> u64 {
    let mut h = DefaultHasher::new();
    (text, sig).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn a_borrowed_pair_finds_the_owned_key() {
        let mut map: HashMap<Arc<TextKey>, u32> = HashMap::new();
        map.insert(TextKey::new("SELECT 1", "a=int"), 7);
        let probe = |text: &str, sig: &str| map.get(&(text, sig) as &dyn KeyParts).copied();
        assert_eq!(probe("SELECT 1", "a=int"), Some(7));
        assert_eq!(probe("SELECT 1", ""), None);
        // The split between the parts is part of the key.
        assert_eq!(probe("SELECT 1a", "=int"), None);
    }
}
