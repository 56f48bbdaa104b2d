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
//! An ad-hoc text is expected not to come back, so it is not kept — except
//! the one that does: a text sighted a second time (a direct-mapped table of
//! text hashes remembers the first) is *recurring*, and is entered under its
//! raw text with its template and its bindings, so that from then on it is
//! warm at step 1 like a parameterized statement, without the lift.
//!
//! One cache, one key space: raw texts with nothing to lift, templates, and
//! the ad-hoc texts that recur. What is cached is a pure function of the text
//! (see [`mtc_sql::Prepared`]), so an entry is never invalidated — only
//! evicted, least recently used first, once [`STATEMENT_CACHE_CAPACITY`]
//! texts are held. Everything that depends on state — the plan, the
//! permission check, the currency decision — is looked up or redone per
//! execution, downstream of this cache.

use std::borrow::Cow;
use std::sync::Arc;

use mtc_engine::Bindings;
use mtc_sql::{lift_literals, lifted_name, Prepared, Template};
use mtc_types::Result;
use mtc_util::lru::LruMap;
use mtc_util::sync::Mutex;

use crate::fleet::fnv1a64;
use crate::stats::SharedServerStats;

/// Texts a server keeps prepared. A text that recurs is one of few — an
/// application's parameterized statements and procedure calls, the templates
/// of its ad-hoc ones — so a small cache holds everything worth holding and
/// bounds what a stream of distinct shapes can take up.
pub const STATEMENT_CACHE_CAPACITY: usize = 128;

/// Ad-hoc texts whose first sighting is remembered (one hash each).
const SIGHTINGS: usize = 1024;

/// A statement ready to execute: its prepared form, and the values lifted
/// out of the text it was sent as.
#[derive(Clone)]
pub struct Resolved {
    pub stmt: Arc<Prepared>,
    /// The lifted values under their reserved names (`__pN`); `None` when
    /// the text was its own template.
    lifted: Option<Arc<Bindings>>,
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
                return Ok(Resolved::of_template(Arc::new(stmt), template));
            }
        }
        Ok(Resolved {
            stmt: Arc::new(Prepared::new(sql)?),
            lifted: None,
        })
    }

    /// `stmt` is `template`'s prepared form; binds the template's values.
    fn of_template(stmt: Arc<Prepared>, template: Template) -> Resolved {
        let values = template.values.into_iter().enumerate();
        Resolved {
            stmt,
            lifted: Some(Arc::new(values.map(|(n, v)| (lifted_name(n), v)).collect())),
        }
    }

    /// EXPLAIN's account of the lift: the template that executes and the
    /// bindings it executes with, one line each; empty when the text was its
    /// own template.
    pub fn describe(&self) -> String {
        let Some(lifted) = &self.lifted else {
            return String::new();
        };
        let bound: Vec<String> = (0..lifted.len())
            .map(|n| format!("@{0} = {1:?}", lifted_name(n), lifted[&lifted_name(n)]))
            .collect();
        format!(
            "parameterized: {}\nbindings: {}\n",
            self.stmt.text,
            bound.join(", ")
        )
    }

    /// The bindings the statement executes with: the caller's, plus the
    /// lifted values under their reserved names. Borrowed unless both have
    /// some.
    pub fn bindings<'a>(&'a self, params: &'a Bindings) -> Cow<'a, Bindings> {
        match &self.lifted {
            None => Cow::Borrowed(params),
            Some(lifted) if params.is_empty() => Cow::Borrowed(lifted),
            Some(lifted) => {
                let mut all = params.clone();
                all.extend(lifted.iter().map(|(name, v)| (name.clone(), v.clone())));
                Cow::Owned(all)
            }
        }
    }
}

/// A bounded text → prepared-statement map shared by a server's sessions.
pub struct StatementCache {
    inner: Mutex<Inner>,
}

struct Inner {
    entries: LruMap<Arc<str>, Resolved>,
    /// Hashes of ad-hoc texts sighted once, direct-mapped.
    sighted: Box<[u64]>,
}

impl Default for StatementCache {
    fn default() -> StatementCache {
        StatementCache {
            inner: Mutex::new(Inner {
                entries: LruMap::new(),
                sighted: vec![0; SIGHTINGS].into(),
            }),
        }
    }
}

impl Inner {
    fn insert(&mut self, text: Arc<str>, resolved: Resolved) {
        self.entries.insert(text, resolved);
        if self.entries.len() > STATEMENT_CACHE_CAPACITY {
            self.entries.pop_lru();
        }
    }

    /// Whether `sql` was sighted before (and still is remembered); it is
    /// from now on.
    fn sighted_before(&mut self, sql: &str) -> bool {
        let hash = fnv1a64(sql.as_bytes()) | 1;
        let slot = &mut self.sighted[(hash >> 1) as usize % SIGHTINGS];
        std::mem::replace(slot, hash) == hash
    }
}

impl StatementCache {
    /// The prepared form of `sql` (see the module docs): from the cache under
    /// the raw text or under its template, else parsed now (outside the
    /// lock), counted in `stats.prepares` and cached. A raw-text miss that
    /// resolves to a template counts in `stats.auto_parameterized`. A text
    /// that fails to parse is not cached; it fails the same way the next
    /// time.
    pub fn prepare(&self, sql: &str, stats: &SharedServerStats) -> Result<Resolved> {
        if let Some(hit) = self.inner.lock().entries.get(sql) {
            return Ok(hit.clone());
        }
        let template = lift_literals(sql).ok().flatten();
        let (resident, recurring) = match &template {
            Some(template) => {
                let mut inner = self.inner.lock();
                let resident = inner.entries.get(&*template.text).cloned();
                (resident, inner.sighted_before(sql))
            }
            None => (None, false),
        };
        let resolved = match (resident, template) {
            (Some(entry), Some(template)) => Resolved::of_template(entry.stmt, template),
            (_, template) => {
                stats.prepares.inc();
                let parsed = Resolved::parse(sql, template)?;
                let entry = Resolved {
                    stmt: parsed.stmt.clone(),
                    lifted: None,
                };
                self.inner.lock().insert(entry.stmt.text.clone(), entry);
                parsed
            }
        };
        if resolved.lifted.is_some() {
            stats.auto_parameterized.inc();
            if recurring {
                self.inner.lock().insert(sql.into(), resolved.clone());
            }
        }
        Ok(resolved)
    }

    /// Texts currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::Value;

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
        assert_eq!(
            b.describe().lines().nth(1),
            Some("bindings: @__p0 = Int(2), @__p1 = Float(0.25)")
        );
        assert_eq!((stats.prepares.get(), cache.len()), (1, 1));
        assert_eq!(stats.auto_parameterized.get(), 2);
        // The caller's bindings ride along; a map is built only when both
        // sides have some.
        let (none, mut user) = (Bindings::new(), Bindings::new());
        user.insert("u".into(), Value::Int(7));
        let all = b.bindings(&user);
        assert_eq!(all.len(), 3);
        assert_eq!(all["__p1"], Value::Float(0.25));
        assert!(matches!(b.bindings(&none), Cow::Borrowed(lifted) if lifted.len() == 2));
        let plain = prepare(&cache, &stats, "SELECT a FROM t WHERE k = @u");
        assert!(matches!(plain.bindings(&user), Cow::Borrowed(_)));
    }

    #[test]
    fn an_ad_hoc_text_that_recurs_is_entered_under_its_raw_text() {
        let (cache, stats) = (StatementCache::default(), SharedServerStats::default());
        let recurring = "SELECT a FROM t WHERE k = 1";
        // Texts that do not come back leave their template and nothing else.
        for k in 2..500 {
            prepare(&cache, &stats, &format!("SELECT a FROM t WHERE k = {k}"));
        }
        let first = prepare(&cache, &stats, recurring);
        assert_eq!((cache.len(), stats.auto_parameterized.get()), (1, 499));
        // The second sighting enters it; from the third on it is a raw hit:
        // no lift, the same template, the same bindings.
        prepare(&cache, &stats, recurring);
        assert_eq!((cache.len(), stats.auto_parameterized.get()), (2, 500));
        let third = prepare(&cache, &stats, recurring);
        assert_eq!((cache.len(), stats.auto_parameterized.get()), (2, 500));
        assert!(Arc::ptr_eq(&first.stmt, &third.stmt));
        assert_eq!(first.describe(), third.describe());
        assert_eq!(stats.prepares.get(), 1);
    }

    #[test]
    fn parse_errors_are_the_texts_own_and_are_not_cached() {
        let (cache, stats) = (StatementCache::default(), SharedServerStats::default());
        for sql in [
            "SELEKT 1",
            "SELECT a FROM t WHERE k = 5 5",
            "SELECT 'oops",
            // The tail is not read into the parameter's name.
            "SELECT a FROM t WHERE k = 5x",
            "SELECT a FROM t WHERE k = 1.5e3",
        ] {
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
