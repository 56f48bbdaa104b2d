//! The statement cache: statement text → [`Prepared`].
//!
//! SQL Server prepares a parameterized statement once and runs it many
//! times, and extends that to ad-hoc text by *simple parameterization*; both
//! servers here do the same with every text they are handed:
//!
//! 1. **Raw probe.** The text as received. A parameterized client statement,
//!    a procedure call, anything with nothing to lift is cached under its own
//!    text, so a warm statement pays one hash probe and nothing else.
//! 2. **Lift.** On a miss, [`mtc_sql::lift_literals`] — one pass of the
//!    lexer, no parse — replaces the text's predicate literals with reserved
//!    `@__pN` parameters and hands back their values.
//! 3. **Template probe.** The lifted text (the *template*) is what is cached,
//!    what [`Prepared::key`] renders, and so what the plan cache, the result
//!    caches and the shipped fragments are keyed on: statements that differ
//!    only in lifted values are one entry on every tier.
//!
//! One cache, one key space: raw texts with nothing to lift, and templates.
//! What is cached is a pure function of the text (see [`mtc_sql::Prepared`]),
//! so an entry is never invalidated — only evicted, least recently used
//! first, once [`STATEMENT_CACHE_CAPACITY`] texts are held. Everything that
//! depends on state — the plan, the permission check, the currency decision —
//! is looked up or redone per execution, downstream of this cache.

use std::borrow::Cow;
use std::sync::Arc;

use mtc_engine::Bindings;
use mtc_sql::{lift_literals, lifted_name, Prepared, Template};
use mtc_types::{Result, Value};
use mtc_util::lru::LruMap;
use mtc_util::sync::Mutex;

use crate::stats::SharedServerStats;

/// Texts a server keeps prepared. A text that recurs is one of few — an
/// application's parameterized statements and procedure calls, the templates
/// of its ad-hoc ones — so a small cache holds everything worth holding and
/// bounds what a stream of distinct shapes can take up.
pub const STATEMENT_CACHE_CAPACITY: usize = 128;

/// A statement ready to execute: its prepared form, and the values lifted
/// out of the text it was sent as.
pub struct Resolved {
    pub stmt: Arc<Prepared>,
    /// `lifted[n]` binds `@__pN`; empty when the text was its own template.
    pub lifted: Vec<Value>,
}

impl Resolved {
    /// Resolves `sql` without a cache: lift, then parse.
    pub fn new(sql: &str) -> Result<Resolved> {
        Resolved::parse(sql, lift_literals(sql).ok().flatten())
    }

    /// Parses `template` (what the lift pass made of `sql`, if anything).
    /// A template that does not parse means the text does not either — the
    /// pass only swaps one operand token for another — and the error
    /// reported is the text's own, as is a lexer error the pass ran into.
    fn parse(sql: &str, template: Option<Template>) -> Result<Resolved> {
        if let Some(template) = template {
            if let Ok(stmt) = Prepared::new(&template.text) {
                return Ok(Resolved {
                    stmt: Arc::new(stmt),
                    lifted: template.values,
                });
            }
        }
        Ok(Resolved {
            stmt: Arc::new(Prepared::new(sql)?),
            lifted: Vec::new(),
        })
    }

    /// EXPLAIN's account of the lift: the template that executes and the
    /// bindings it executes with, one line each; empty when the text was its
    /// own template.
    pub fn describe(&self) -> String {
        if self.lifted.is_empty() {
            return String::new();
        }
        let bound: Vec<String> = (self.lifted.iter().enumerate())
            .map(|(n, value)| format!("@{} = {value:?}", lifted_name(n)))
            .collect();
        format!(
            "parameterized: {}\nbindings: {}\n",
            self.stmt.text,
            bound.join(", ")
        )
    }

    /// The bindings the statement executes with: the caller's, plus the
    /// lifted values under their reserved names. Borrowed when nothing was
    /// lifted.
    pub fn bindings<'a>(&self, params: &'a Bindings) -> Cow<'a, Bindings> {
        if self.lifted.is_empty() {
            return Cow::Borrowed(params);
        }
        let mut all = params.clone();
        for (n, value) in self.lifted.iter().enumerate() {
            all.insert(lifted_name(n), value.clone());
        }
        Cow::Owned(all)
    }
}

/// A bounded text → prepared-statement map shared by a server's sessions.
#[derive(Default)]
pub struct StatementCache {
    entries: Mutex<LruMap<Arc<str>, Arc<Prepared>>>,
}

impl StatementCache {
    fn get(&self, text: &str) -> Option<Arc<Prepared>> {
        self.entries.lock().get(text).cloned()
    }

    /// The prepared form of `sql` (see the module docs): from the cache under
    /// the raw text or under its template, else parsed now (outside the
    /// lock), counted in `stats.prepares` and cached. A raw-text miss that
    /// resolves to a template counts in `stats.auto_parameterized`. A text
    /// that fails to parse is not cached; it fails the same way the next
    /// time.
    pub fn prepare(&self, sql: &str, stats: &SharedServerStats) -> Result<Resolved> {
        if let Some(stmt) = self.get(sql) {
            return Ok(Resolved {
                stmt,
                lifted: Vec::new(),
            });
        }
        let template = lift_literals(sql).ok().flatten();
        let resident = template.as_ref().and_then(|t| self.get(&t.text));
        let resolved = match (resident, template) {
            (Some(stmt), Some(template)) => Resolved {
                stmt,
                lifted: template.values,
            },
            (_, template) => {
                stats.prepares.inc();
                let parsed = Resolved::parse(sql, template)?;
                let mut entries = self.entries.lock();
                entries.insert(parsed.stmt.text.clone(), parsed.stmt.clone());
                if entries.len() > STATEMENT_CACHE_CAPACITY {
                    entries.pop_lru();
                }
                parsed
            }
        };
        if !resolved.lifted.is_empty() {
            stats.auto_parameterized.inc();
        }
        Ok(resolved)
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

    fn prepare(cache: &StatementCache, stats: &SharedServerStats, sql: &str) -> Resolved {
        cache.prepare(sql, stats).unwrap()
    }

    #[test]
    fn prepares_once_and_shares() {
        let (cache, stats) = (StatementCache::default(), SharedServerStats::default());
        let a = prepare(&cache, &stats, "SELECT 1");
        let b = prepare(&cache, &stats, "SELECT 1");
        assert!(Arc::ptr_eq(&a.stmt, &b.stmt));
        assert_eq!(stats.prepares.get(), 1);
        // A different spelling is a different text.
        prepare(&cache, &stats, "select 1");
        assert_eq!((stats.prepares.get(), cache.len()), (2, 2));
        assert_eq!(stats.auto_parameterized.get(), 0);
    }

    #[test]
    fn texts_differing_in_lifted_values_share_one_entry() {
        let (cache, stats) = (StatementCache::default(), SharedServerStats::default());
        let a = prepare(&cache, &stats, "SELECT a FROM t WHERE k = 1 AND s >= 0.5");
        let b = prepare(&cache, &stats, "SELECT a FROM t WHERE k = 2 AND s >= 0.25");
        assert!(Arc::ptr_eq(&a.stmt, &b.stmt));
        assert_eq!(
            &*a.stmt.text,
            "SELECT a FROM t WHERE k = @__p0 AND s >= @__p1"
        );
        assert_eq!(a.stmt.params, ["__p0", "__p1"]);
        assert_eq!(b.lifted, [Value::Int(2), Value::Float(0.25)]);
        assert_eq!((stats.prepares.get(), cache.len()), (1, 1));
        assert_eq!(stats.auto_parameterized.get(), 2);
        // The caller's bindings ride along; with nothing lifted they are
        // borrowed as they are.
        let mut user = Bindings::new();
        user.insert("u".into(), Value::Int(7));
        let all = b.bindings(&user);
        assert_eq!(all.len(), 3);
        assert_eq!(all["__p1"], Value::Float(0.25));
        let plain = prepare(&cache, &stats, "SELECT a FROM t WHERE k = @u");
        assert!(matches!(plain.bindings(&user), Cow::Borrowed(_)));
    }

    #[test]
    fn parse_errors_are_the_texts_own_and_are_not_cached() {
        let (cache, stats) = (StatementCache::default(), SharedServerStats::default());
        for sql in ["SELEKT 1", "SELECT a FROM t WHERE k = 5 5", "SELECT 'oops"] {
            let before = stats.prepares.get();
            let first = cache.prepare(sql, &stats).err().unwrap();
            let second = cache.prepare(sql, &stats).err().unwrap();
            assert_eq!(first.to_string(), second.to_string());
            assert_eq!(
                first.to_string(),
                Prepared::new(sql).unwrap_err().to_string(),
                "{sql}"
            );
            assert_eq!(stats.prepares.get(), before + 2, "each attempt is a miss");
        }
        assert!(cache.is_empty());
        assert_eq!(stats.auto_parameterized.get(), 0);
    }

    #[test]
    fn stays_at_capacity_and_keeps_what_recurs() {
        let (cache, stats) = (StatementCache::default(), SharedServerStats::default());
        let hot = "SELECT i_id FROM item WHERE i_id = @id";
        for i in 0..3 * STATEMENT_CACHE_CAPACITY {
            prepare(&cache, &stats, hot);
            prepare(&cache, &stats, &format!("SELECT {i}"));
        }
        assert_eq!(cache.len(), STATEMENT_CACHE_CAPACITY);
        assert_eq!(
            stats.prepares.get() as usize,
            1 + 3 * STATEMENT_CACHE_CAPACITY
        );
    }
}
