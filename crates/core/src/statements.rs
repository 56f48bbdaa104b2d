//! The statement cache: statement text → [`Prepared`].
//!
//! SQL Server prepares a parameterized statement once and runs it many
//! times; both servers here do the same with every text they are handed.
//! What is cached is a pure function of the text (see
//! [`mtc_sql::Prepared`]), so an entry is never invalidated — only evicted,
//! least recently used first, once [`STATEMENT_CACHE_CAPACITY`] texts are
//! held. Everything that depends on state — the plan, the permission check,
//! the currency decision — is looked up or redone per execution, downstream
//! of this cache.

use std::sync::Arc;

use mtc_sql::Prepared;
use mtc_types::Result;
use mtc_util::atomic::Counter;
use mtc_util::lru::LruMap;
use mtc_util::sync::Mutex;

/// Texts a server keeps prepared. A text that recurs is one of few — an
/// application's parameterized statements and procedure calls — while ad-hoc
/// texts pass through once, so a small cache holds everything worth holding
/// and bounds what a stream of distinct texts can take up.
pub const STATEMENT_CACHE_CAPACITY: usize = 128;

/// A bounded text → prepared-statement map shared by a server's sessions.
#[derive(Default)]
pub struct StatementCache {
    entries: Mutex<LruMap<Arc<str>, Arc<Prepared>>>,
}

impl StatementCache {
    /// The prepared form of `sql`: from the cache, else parsed now (outside
    /// the lock), counted in `misses` and cached. A text that fails to parse
    /// is not cached; it fails the same way the next time.
    pub fn prepare(&self, sql: &str, misses: &Counter) -> Result<Arc<Prepared>> {
        if let Some(hit) = self.entries.lock().get(sql) {
            return Ok(hit.clone());
        }
        misses.inc();
        let prepared = Arc::new(Prepared::new(sql)?);
        let mut entries = self.entries.lock();
        entries.insert(prepared.text.clone(), prepared.clone());
        if entries.len() > STATEMENT_CACHE_CAPACITY {
            entries.pop_lru();
        }
        Ok(prepared)
    }

    /// Texts currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepares_once_and_shares() {
        let cache = StatementCache::default();
        let misses = Counter::default();
        let a = cache.prepare("SELECT 1", &misses).unwrap();
        let b = cache.prepare("SELECT 1", &misses).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(misses.get(), 1);
        // A different spelling is a different text.
        cache.prepare("select 1", &misses).unwrap();
        assert_eq!((misses.get(), cache.len()), (2, 2));
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = StatementCache::default();
        let misses = Counter::default();
        let first = cache.prepare("SELEKT 1", &misses).unwrap_err();
        let second = cache.prepare("SELEKT 1", &misses).unwrap_err();
        assert_eq!(first.to_string(), second.to_string());
        assert!(cache.is_empty());
        assert_eq!(misses.get(), 2);
    }

    #[test]
    fn stays_at_capacity_and_keeps_what_recurs() {
        let cache = StatementCache::default();
        let misses = Counter::default();
        let hot = "SELECT i_id FROM item WHERE i_id = @id";
        for i in 0..3 * STATEMENT_CACHE_CAPACITY {
            cache.prepare(hot, &misses).unwrap();
            cache.prepare(&format!("SELECT {i}"), &misses).unwrap();
        }
        assert_eq!(cache.len(), STATEMENT_CACHE_CAPACITY);
        assert_eq!(misses.get() as usize, 1 + 3 * STATEMENT_CACHE_CAPACITY);
    }
}
