//! The incremental join: one core that keeps the least upper bound of a
//! keyed set of schemas current, for the registry (members → merged
//! view) and the supergraph (registries → composed view) alike.
//!
//! The merge is a least upper bound, so for any key `k`,
//! `⊔ᵢGᵢ = (⊔ᵢ≠ₖGᵢ) ⊔ Gₖ`: the join of everything *else* is a reusable
//! intermediate. Joins are not invertible — the old contribution of `k`
//! cannot be subtracted from the cached total — so [`IncrementalJoin`]
//! remembers the joins it has computed, keyed by a fingerprint of the
//! exact set of `(key, content-hash)` pairs that produced them. Every
//! step runs in two phases:
//!
//! 1. [`IncrementalJoin::plan`] finds the join of the unchanged parts —
//!    from the cache, or joined cold from scratch (the widest merge of
//!    the step, so it gets the thread budget);
//! 2. [`IncrementalJoin::execute`] joins at most one changed part onto it
//!    through [`Merger::onto_base`] — only the changed part is interned —
//!    completes, and seeds the cache with both the rest-join and the new
//!    total.
//!
//! Those two seeds make the common traffic shapes hit:
//!
//! * republish `k` → the rest-set `{all} ∖ {k}` was seeded by the
//!   previous change of `k`, so every later change of `k` is incremental;
//! * add a new key → the rest-set is the previous total, seeded by the
//!   previous step;
//! * remove `k` → same rest-set as a republish of `k`.
//!
//! Entries are stored compiled ([`CompiledSchema`]), so the interner
//! survives across steps and a join never detours through the symbolic
//! form. They are evicted least-recently-touched past a fixed cap; the
//! joins are `Arc`-shared, so eviction never invalidates a step in
//! flight. The callers keep everything around the core: the registry its
//! optimistic commit, WAL and degraded mode, the supergraph its
//! provenance and `H-COMPOSE-*` hints.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use schema_merge_core::merger::MergeReport;
use schema_merge_core::{CompiledSchema, MergeError, Merger, WeakSchema};

use crate::registry::MergeStrategy;

/// How many joined sets to remember. Generous for the traffic shapes
/// above (each needs O(1) entries per actively-churning key) while
/// bounding memory on adversarial access patterns.
const CAP: usize = 64;

/// A fingerprint of a keyed set: FNV-1a over the `(key, content-hash)`
/// pairs, length-framed. Pairs must come in sorted key order.
fn fingerprint<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> u64 {
    // FNV-1a, same parameters as the core's interning hasher.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (name, content) in pairs {
        write(&(name.len() as u64).to_le_bytes());
        write(name.as_bytes());
        write(&content.to_le_bytes());
    }
    hash
}

/// The fingerprint of `parts` plus `changed`, in sorted key order.
fn fingerprint_of(parts: &[Part], changed: Option<&Part>) -> u64 {
    let mut pairs: Vec<(&str, u64)> = parts
        .iter()
        .chain(changed)
        .map(|part| (part.key.as_str(), part.hash))
        .collect();
    pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
    fingerprint(pairs.into_iter())
}

struct Entry {
    join: Arc<CompiledSchema>,
    touched: u64,
}

/// The LRU cache of compiled joins, keyed by fingerprint.
#[derive(Default)]
struct JoinCache {
    entries: HashMap<u64, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl JoinCache {
    /// Looks up the join of a fingerprinted set, refreshing its LRU
    /// position. Counts a hit or miss.
    fn probe(&mut self, fp: u64) -> Option<Arc<CompiledSchema>> {
        self.clock += 1;
        match self.entries.get_mut(&fp) {
            Some(entry) => {
                entry.touched = self.clock;
                self.hits += 1;
                Some(Arc::clone(&entry.join))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Remembers a computed join, evicting the least-recently-touched
    /// entry if over cap. Inserting an already-present fingerprint just
    /// refreshes it (same set ⇒ same join).
    fn insert(&mut self, fp: u64, join: Arc<CompiledSchema>) {
        self.clock += 1;
        let clock = self.clock;
        self.entries
            .entry(fp)
            .and_modify(|entry| entry.touched = clock)
            .or_insert(Entry {
                join,
                touched: clock,
            });
        if self.entries.len() > CAP {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, e)| e.touched) {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }
}

/// One keyed input of an incremental join: a registry member, or a
/// member registry of a supergraph.
#[derive(Clone)]
pub struct Part {
    /// The key; unique within a set.
    pub key: String,
    /// The content identity of `schema`: equal hashes mean equal schemas.
    pub hash: u64,
    /// The schema this part contributes.
    pub schema: Arc<WeakSchema>,
    /// The compiled form of `schema`, when the part is itself a join (a
    /// registry's view in a supergraph). A step whose only part is this
    /// one completes it directly, without a join pass.
    pub compiled: Option<Arc<CompiledSchema>>,
}

/// Join-cache counters, read coherently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Probes that found their fingerprint.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Entries dropped by the LRU cap.
    pub evictions: u64,
}

/// The first phase of a step: the join to build onto, and what is left
/// to join onto it.
pub struct Plan<'a> {
    /// The compiled join of the unchanged parts.
    base: Arc<CompiledSchema>,
    /// The rest-set's fingerprint, to seed; `None` when `base` is the
    /// changed part's own join.
    rest_fp: Option<u64>,
    /// The changed part still to join onto `base`.
    extra: Option<&'a Part>,
    /// The fingerprint of the whole set after the step.
    total_fp: u64,
    cached: bool,
}

impl Plan<'_> {
    /// Whether the base came from the cache rather than a cold join.
    pub fn cached(&self) -> bool {
        self.cached
    }
}

/// The result of a step: the completed merge of the whole set and the
/// engine path that produced it.
pub struct Step {
    /// The completed merge. Its compiled join has moved into the cache.
    pub report: MergeReport,
    /// [`MergeStrategy::Incremental`] when the plan's base was cached,
    /// [`MergeStrategy::Full`] when it was joined cold.
    pub strategy: MergeStrategy,
}

/// The incremental-join core: the LRU cache of compiled joins, the cold
/// join and the onto-base step, under one thread budget. Safe to share;
/// the cache lock is held only to probe or seed, never across a merge.
pub struct IncrementalJoin {
    cache: Mutex<JoinCache>,
    /// Worker budget for every merge (`None` = the merger's defaults).
    threads: Option<usize>,
}

impl IncrementalJoin {
    /// An empty core with the given merge thread budget.
    pub fn new(threads: Option<usize>) -> Self {
        IncrementalJoin {
            cache: Mutex::new(JoinCache::default()),
            threads,
        }
    }

    fn merger<'a>(&self, merger: Merger<'a>) -> Merger<'a> {
        match self.threads {
            Some(threads) => merger.threads(threads),
            None => merger,
        }
    }

    /// The fingerprint and compiled join of `parts`: cached, or joined
    /// cold and seeded. Probes count toward [`CacheStats`].
    ///
    /// # Errors
    ///
    /// [`MergeError::Incompatible`] when the parts do not join.
    pub(crate) fn join(&self, parts: &[Part]) -> Result<(u64, Arc<CompiledSchema>), MergeError> {
        let (fp, join, cached) = self.probe_or_join(parts)?;
        if !cached {
            let mut cache = self.cache.lock().expect("cache lock");
            cache.insert(fp, Arc::clone(&join));
        }
        Ok((fp, join))
    }

    fn probe_or_join(
        &self,
        parts: &[Part],
    ) -> Result<(u64, Arc<CompiledSchema>, bool), MergeError> {
        let fp = fingerprint_of(parts, None);
        if let Some(join) = self.cache.lock().expect("cache lock").probe(fp) {
            return Ok((fp, join, true));
        }
        let joined = self
            .merger(Merger::new().schemas(parts.iter().map(|part| part.schema.as_ref())))
            .join()?;
        let (_, compiled) = joined.into_parts();
        let join = Arc::new(compiled.expect("the compiled engine keeps the compiled join"));
        Ok((fp, join, false))
    }

    /// Plans a step that leaves `rest` unchanged and adds or replaces
    /// `changed` (`None` removes a key, or recompletes `rest` as is).
    /// `rest` must be sorted by key and must not contain `changed`'s key.
    ///
    /// # Errors
    ///
    /// [`MergeError::Incompatible`] when a cold join of `rest` fails.
    pub fn plan<'a>(
        &self,
        rest: &[Part],
        changed: Option<&'a Part>,
    ) -> Result<Plan<'a>, MergeError> {
        let total_fp = fingerprint_of(rest, changed);
        // A lone part that is itself a join is already the total.
        let own = changed.and_then(|part| part.compiled.as_ref());
        if let (true, Some(own)) = (rest.is_empty(), own) {
            return Ok(Plan {
                base: Arc::clone(own),
                rest_fp: None,
                extra: None,
                total_fp,
                cached: true,
            });
        }
        let (fp, base, cached) = self.probe_or_join(rest)?;
        Ok(Plan {
            base,
            rest_fp: Some(fp),
            extra: changed,
            total_fp,
            cached,
        })
    }

    /// Executes a plan: joins the changed part onto the base, completes,
    /// and seeds the cache with the rest-join and the new total.
    ///
    /// # Errors
    ///
    /// [`MergeError::Incompatible`] when the changed part does not join
    /// the rest; nothing is seeded then.
    pub fn execute(&self, plan: Plan<'_>) -> Result<Step, MergeError> {
        let mut merger = Merger::new().onto_base(&plan.base);
        if let Some(extra) = plan.extra {
            merger = merger.schema(extra.schema.as_ref());
        }
        let mut report = self.merger(merger).execute()?;
        // With nothing joined onto it, the base is already the total.
        let total = report
            .compiled
            .take()
            .map_or_else(|| Arc::clone(&plan.base), Arc::new);
        let mut cache = self.cache.lock().expect("cache lock");
        if let Some(rest_fp) = plan.rest_fp {
            cache.insert(rest_fp, plan.base);
        }
        cache.insert(plan.total_fp, total);
        drop(cache);
        Ok(Step {
            report,
            strategy: if plan.cached {
                MergeStrategy::Incremental
            } else {
                MergeStrategy::Full
            },
        })
    }

    /// The cache counters.
    pub fn stats(&self) -> CacheStats {
        let cache = self.cache.lock().expect("cache lock");
        CacheStats {
            entries: cache.entries.len(),
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_depends_on_names_and_hashes() {
        let a = fingerprint([("a", 1u64), ("b", 2u64)].into_iter());
        let same = fingerprint([("a", 1u64), ("b", 2u64)].into_iter());
        let diff_hash = fingerprint([("a", 1u64), ("b", 3u64)].into_iter());
        let diff_name = fingerprint([("a", 1u64), ("c", 2u64)].into_iter());
        let subset = fingerprint([("a", 1u64)].into_iter());
        assert_eq!(a, same);
        assert_ne!(a, diff_hash);
        assert_ne!(a, diff_name);
        assert_ne!(a, subset);
    }

    #[test]
    fn fingerprint_framing_resists_concatenation_ambiguity() {
        // ("ab", h) vs ("a", h') + ("b", ...) style collisions are ruled
        // out by length framing.
        let joined = fingerprint([("ab", 1u64)].into_iter());
        let split = fingerprint([("a", 1u64), ("b", 1u64)].into_iter());
        assert_ne!(joined, split);
    }

    #[test]
    fn cache_probes_hit_and_evict_lru() {
        let mut cache = JoinCache::default();
        let join = Arc::new(CompiledSchema::compile(
            &schema_merge_core::WeakSchema::empty(),
        ));
        assert!(cache.probe(7).is_none());
        cache.insert(7, Arc::clone(&join));
        assert!(cache.probe(7).is_some());
        assert_eq!((cache.hits, cache.misses), (1, 1));

        for fp in 100..100 + (CAP as u64) {
            cache.insert(fp, Arc::clone(&join));
        }
        assert!(cache.entries.len() <= CAP);
        assert!(cache.evictions >= 1);
        // 7 was the least recently touched after the flood began.
        assert!(cache.probe(7).is_none());
    }

    fn part(key: &str, src: &str, tgt: &str) -> Part {
        let schema = WeakSchema::builder().arrow(src, "f", tgt).build().unwrap();
        Part {
            key: key.into(),
            hash: schema.content_hash(),
            schema: Arc::new(schema),
            compiled: None,
        }
    }

    /// A step onto a cold rest seeds it, so the next change of the same
    /// key builds onto the cache — and both equal the one-shot merge.
    #[test]
    fn steps_seed_the_rest_and_the_total() {
        let core = IncrementalJoin::new(None);
        let rest = [part("a", "A", "T"), part("b", "B", "U")];
        let first = part("c", "C", "V");
        let step = core
            .execute(core.plan(&rest, Some(&first)).unwrap())
            .unwrap();
        assert_eq!(step.strategy, MergeStrategy::Full);
        let second = part("c", "C", "W");
        let plan = core.plan(&rest, Some(&second)).unwrap();
        assert!(plan.cached());
        let step = core.execute(plan).unwrap();
        assert_eq!(step.strategy, MergeStrategy::Incremental);
        let oneshot = Merger::new()
            .schemas(rest.iter().chain([&second]).map(|p| p.schema.as_ref()))
            .execute()
            .unwrap();
        assert_eq!(step.report.proper, oneshot.proper);

        // The total was seeded too: the whole set's join is a hit.
        let all = [rest[0].clone(), rest[1].clone(), second];
        let hits = core.stats().hits;
        core.join(&all).unwrap();
        assert_eq!(core.stats().hits, hits + 1);
    }
}
