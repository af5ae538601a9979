//! The runtime-side tuner facade — the piece an MPI library links.
//!
//! At application startup the library builds one [`Tuner`] from the tuning
//! tables produced at compile time (Fig. 4's JSON artifacts, one per
//! collective). Every collective call then asks the tuner which algorithm
//! to run; lookups are memoized per (collective, job shape, message size),
//! so the steady-state cost is one map probe — the "constant time at
//! application runtime" the paper's title promises.
//!
//! The memo cache is sharded per collective and read-mostly: every shard
//! is an [`RwLock`] over an ordered map, so concurrent callers on the
//! steady-state path take a shared read lock on *different* shards and
//! never serialize behind one global mutex. [`Tuner`] is `Send + Sync` and
//! designed to live in an [`std::sync::Arc`] shared by every serving
//! thread (see `pml-serve`).

use crate::error::PmlError;
use crate::selectors::{
    applicable_or_fallback, AlgorithmSelector, AnalyticSelector, JobConfig, MvapichDefault,
};
use crate::tuning_table::TuningTable;
use pml_collectives::{Algorithm, Collective};
use pml_obs::{Counter, Histogram};
use pml_simnet::NodeSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

static CACHE_HIT: Counter = Counter::new("tuner.cache.hit");
static CACHE_MISS: Counter = Counter::new("tuner.cache.miss");
/// How far each (uncached) lookup strayed from the pre-computed table —
/// bucketed by [`FallbackDepth`] (0 exact … 4 default rules).
static FALLBACK_DEPTH: Histogram = Histogram::new("table.fallback.depth", &[0, 1, 2, 3, 4]);

/// How a [`Tuner::select`] decision was reached, from best to worst:
/// the lower the depth, the more the pre-trained table was trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackDepth {
    /// The queried (nodes, ppn, msg) was an exact grid cell and its
    /// algorithm applied as-is.
    Exact = 0,
    /// Off-grid query resolved to the nearest table bucket.
    NearestBucket = 1,
    /// The table's recommendation was inapplicable at this world size and
    /// a fallback algorithm was substituted.
    Substituted = 2,
    /// No table covers the collective: the analytic α-β-γ tier ranked the
    /// applicable algorithms from statically extracted cost polynomials
    /// (hardware-aware, model-free — see `pml_collectives::schedcost`).
    Analytic = 3,
    /// No table and no analytic tier (or neither produced an applicable
    /// algorithm): the library's static default rules decided.
    DefaultRules = 4,
}

impl FallbackDepth {
    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// Most decisions one shard memoizes. Past it new keys are answered but
/// not remembered — a decision is a pure function of its key, so skipping
/// the memo is always correct — which bounds memory under a client that
/// cycles through distinct job shapes or message sizes.
const SHARD_CAP: usize = 65_536;

/// Memo key within a shard: the job shape (nodes, ppn, msg_size).
type ShardKey = (u32, u32, usize);
/// Memoized decision: the algorithm and how it was reached.
type Decision = (Algorithm, FallbackDepth);

/// One memo shard: the decisions for a single collective, behind a
/// read-mostly lock. Hit/miss tallies are relaxed atomics so the read path
/// never upgrades to a write lock just to count.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<BTreeMap<ShardKey, Decision>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    /// Read view, recovering from a poisoned lock: the map holds plain
    /// lookup results, so a panic in another thread mid-insert cannot
    /// leave it semantically inconsistent — worst case is one lost memo.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<ShardKey, Decision>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<ShardKey, Decision>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shard index for a collective: its position in [`Collective::ALL`].
fn shard_index(collective: Collective) -> usize {
    match collective {
        Collective::Allgather => 0,
        Collective::Alltoall => 1,
        Collective::Bcast => 2,
        Collective::Allreduce => 3,
    }
}

/// Per-process algorithm selection with memoized tuning-table lookups.
///
/// Thread-safety: the tables are immutable after construction and the memo
/// cache is sharded per collective behind read-mostly locks, so any number
/// of threads may call [`Tuner::select`] concurrently on one shared
/// (`Arc`-wrapped) tuner. Ordered maps throughout: iteration order (e.g.
/// in [`Tuner::covered`] or any future cache dump) is deterministic, never
/// hash-seed dependent.
#[derive(Debug)]
pub struct Tuner {
    tables: BTreeMap<Collective, TuningTable>,
    /// The analytic α-β-γ tier, graded between the table and the static
    /// default rules when present (see [`FallbackDepth::Analytic`]).
    analytic: Option<AnalyticSelector>,
    shards: [Shard; Collective::ALL.len()],
}

impl Tuner {
    /// Build from tuning tables (typically deserialized from the JSON files
    /// next to the MPI library). Collectives without a table fall back to
    /// the library's static default rules.
    pub fn new(tables: impl IntoIterator<Item = TuningTable>) -> Self {
        Tuner {
            tables: tables.into_iter().map(|t| (t.collective, t)).collect(),
            analytic: None,
            shards: Default::default(),
        }
    }

    /// Like [`Tuner::new`], but queries not answerable from any table are
    /// ranked by the analytic cost model fitted for `node` before the
    /// hardware-blind default rules get a say. Decisions stay
    /// deterministic: polynomials and fitted constants are pure functions
    /// of (node, job shape).
    pub fn with_analytic(tables: impl IntoIterator<Item = TuningTable>, node: NodeSpec) -> Self {
        let mut t = Tuner::new(tables);
        t.analytic = Some(AnalyticSelector::new(node));
        t
    }

    /// Whether the analytic fallback tier is installed.
    pub fn has_analytic(&self) -> bool {
        self.analytic.is_some()
    }

    /// Load every `*.json` tuning table in a directory, routing each
    /// through the static verifier ([`crate::verify::verify_table`]) — grid
    /// totality, collective consistency, fallback termination. Entries that
    /// cannot be read, parsed or verified are skipped, not fatal — the
    /// warnings list says which and why (a deployment with one damaged
    /// table still serves the rest). Only an unreadable `dir` is an error.
    pub fn from_dir(dir: &std::path::Path) -> Result<(Self, Vec<String>), PmlError> {
        let io_err = |e: std::io::Error, path: &std::path::Path| PmlError::Io {
            path: path.to_path_buf(),
            source: e,
        };
        let mut tables = Vec::new();
        let mut warnings = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(e, dir))? {
            let path = entry.map_err(|e| io_err(e, dir))?.path();
            if path.extension().is_some_and(|e| e == "json") {
                let table = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read failed: {e}"))
                    .and_then(|text| {
                        crate::verify::verify_table_json(&text).map_err(|e| e.to_string())
                    });
                match table {
                    Ok(t) => tables.push(t),
                    Err(e) => warnings.push(format!("skipping table {}: {e}", path.display())),
                }
            }
        }
        Ok((Tuner::new(tables), warnings))
    }

    /// Which collectives have tables loaded.
    pub fn covered(&self) -> Vec<Collective> {
        let mut v: Vec<Collective> = self.tables.keys().copied().collect();
        v.sort();
        v
    }

    /// Cluster name the loaded table for `collective` was measured on, if
    /// a table is loaded. The serve-side quality monitor uses this to
    /// resolve the analytic referee for table-backed (`select`) answers.
    pub fn table_cluster(&self, collective: Collective) -> Option<&str> {
        self.tables.get(&collective).map(|t| t.cluster.as_str())
    }

    /// (cache hits, cache misses) so far, summed over every shard.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            (
                h + s.hits.load(Ordering::Relaxed),
                m + s.misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Memoized decisions held right now, summed over every shard.
    pub fn cached_decisions(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Pick the algorithm for one collective call.
    pub fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        self.select_traced(collective, job).0
    }

    /// Like [`Tuner::select`], but also report how the decision was reached.
    /// The depth is recorded in the `table.fallback.depth` histogram only on
    /// memo-cache misses (a cached hit repeats an already-counted decision);
    /// the returned depth is accurate either way.
    pub fn select_traced(
        &self,
        collective: Collective,
        job: JobConfig,
    ) -> (Algorithm, FallbackDepth) {
        let key = (job.nodes, job.ppn, job.msg_size);
        let shard = &self.shards[shard_index(collective)];
        let hit = |decision: Decision| {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HIT.inc();
            decision
        };
        if let Some(&decision) = shard.read().get(&key) {
            return hit(decision);
        }
        let world = job.world_size();
        let mut depth = FallbackDepth::DefaultRules;
        let mut chosen = None;
        if let Some(t) = self.tables.get(&collective) {
            let exact = t.get(job.nodes, job.ppn, job.msg_size as u64);
            let raw = exact.or_else(|| t.lookup(job.nodes, job.ppn, job.msg_size as u64));
            if let Some(a) = raw {
                let applied = applicable_or_fallback(a, world);
                if applied.supports(world) {
                    depth = if applied != a {
                        FallbackDepth::Substituted
                    } else if exact.is_some() {
                        FallbackDepth::Exact
                    } else {
                        FallbackDepth::NearestBucket
                    };
                    chosen = Some(applied);
                }
            }
        }
        if chosen.is_none() {
            if let Some(analytic) = &self.analytic {
                if let Some(a) = analytic.try_select(collective, job) {
                    if a.supports(world) {
                        depth = FallbackDepth::Analytic;
                        chosen = Some(a);
                    }
                }
            }
        }
        let chosen = chosen.unwrap_or_else(|| MvapichDefault.select(collective, job));
        // A thread that lost the race to memoize this key computed the same
        // deterministic decision; it counts as the hit it would have been a
        // moment later, so misses stay one per memoized key.
        let mut map = shard.write();
        if let Some(&decision) = map.get(&key) {
            return hit(decision);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISS.inc();
        FALLBACK_DEPTH.observe(depth.as_u64());
        if map.len() < SHARD_CAP {
            map.insert(key, (chosen, depth));
        }
        (chosen, depth)
    }
}

impl AlgorithmSelector for Tuner {
    fn name(&self) -> &str {
        "pml-tuner"
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        Tuner::select(self, collective, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::AlltoallAlgo;

    fn table() -> TuningTable {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
        t.insert(2, 8, 65536, Algorithm::Alltoall(AlltoallAlgo::Pairwise))
            .unwrap();
        t
    }

    #[test]
    fn table_lookups_are_memoized() {
        let tuner = Tuner::new([table()]);
        let job = JobConfig::new(2, 8, 64);
        let a = tuner.select(Collective::Alltoall, job);
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck));
        let b = tuner.select(Collective::Alltoall, job);
        assert_eq!(a, b);
        assert_eq!(tuner.stats(), (1, 1));
    }

    #[test]
    fn uncovered_collectives_use_default_rules() {
        let tuner = Tuner::new([table()]);
        let job = JobConfig::new(2, 8, 1024);
        let a = tuner.select(Collective::Allgather, job);
        assert_eq!(a, MvapichDefault.select(Collective::Allgather, job));
        assert_eq!(tuner.covered(), vec![Collective::Alltoall]);
    }

    #[test]
    fn inapplicable_table_entries_fall_back_safely() {
        // Table recommends RD (pow2 only); a 6-rank job must not get it.
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(
            3,
            2,
            64,
            Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling),
        )
        .unwrap();
        let tuner = Tuner::new([t]);
        let a = tuner.select(Collective::Alltoall, JobConfig::new(3, 2, 64));
        assert!(a.supports(6));
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck)); // RD's fallback
    }

    #[test]
    fn directory_loading_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pmltuner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("aa.json"), table().to_json().unwrap()).unwrap();
        std::fs::write(dir.join("junk.json"), "not json").unwrap();
        // Entries that cannot even be read as text are skipped the same way.
        std::fs::write(dir.join("bad.json"), b"\xff\xfe").unwrap();
        std::fs::create_dir(dir.join("dir.json")).unwrap();
        let (tuner, mut warnings) = Tuner::from_dir(&dir).unwrap();
        assert_eq!(tuner.covered(), vec![Collective::Alltoall]);
        warnings.sort();
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        for (w, name) in warnings.iter().zip(["bad.json", "dir.json", "junk.json"]) {
            assert!(w.starts_with("skipping table ") && w.contains(name), "{w}");
        }
        assert!(warnings[0].contains(": read failed: "), "{warnings:?}");
        assert!(warnings[1].contains(": read failed: "), "{warnings:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn off_grid_queries_resolve_by_nearest_bucket() {
        let tuner = Tuner::new([table()]);
        let a = tuner.select(Collective::Alltoall, JobConfig::new(2, 8, 100));
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck));
    }

    /// An exact grid-cell hit must report fallback depth 0 — the regression
    /// guard for the `table.fallback.depth` metric's base case.
    #[test]
    fn exact_cell_hits_have_zero_fallback_depth() {
        let tuner = Tuner::new([table()]);
        let job = JobConfig::new(2, 8, 64);
        let (a, depth) = tuner.select_traced(Collective::Alltoall, job);
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck));
        assert_eq!(depth, FallbackDepth::Exact);
        assert_eq!(depth.as_u64(), 0);
        // A memoized repeat reports the same depth.
        assert_eq!(
            tuner.select_traced(Collective::Alltoall, job),
            (a, FallbackDepth::Exact)
        );
    }

    /// The whole point of the sharded cache: a tuner in an `Arc` is usable
    /// from any number of threads. Compile-time guarantee.
    #[test]
    fn tuner_is_send_sync_and_arc_shareable() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Tuner>();
        assert_send_sync::<std::sync::Arc<Tuner>>();
    }

    #[test]
    fn concurrent_lookups_agree_with_serial_ones() {
        let tuner = std::sync::Arc::new(Tuner::new([table()]));
        let serial = Tuner::new([table()]);
        let jobs: Vec<JobConfig> = (0..64)
            .map(|i| JobConfig::new(1 + i % 5, 1 + i % 7, 1usize << (i % 18)))
            .collect();
        let want: Vec<_> = jobs
            .iter()
            .map(|&j| serial.select_traced(Collective::Alltoall, j))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tuner = std::sync::Arc::clone(&tuner);
                let jobs = &jobs;
                let want = &want;
                scope.spawn(move || {
                    for (j, w) in jobs.iter().zip(want) {
                        assert_eq!(tuner.select_traced(Collective::Alltoall, *j), *w);
                    }
                });
            }
        });
        // Every decision memoized exactly once; the rest were shard hits.
        let (hits, misses) = tuner.stats();
        assert_eq!(hits + misses, 4 * jobs.len() as u64);
        assert!(tuner.cached_decisions() <= jobs.len());
    }

    /// A client cycling through distinct message sizes cannot grow the
    /// memo past its cap, and what is answered past the cap — or from the
    /// memo on a second pass — is what an empty memo computes.
    #[test]
    fn memo_is_bounded_and_answers_do_not_depend_on_it() {
        let jobs = || (0..200_000).map(|i| JobConfig::new(2, 8, 1 + 37 * i));
        let fresh = Tuner::new([table()]);
        let want: Vec<_> = jobs()
            .map(|j| fresh.select_traced(Collective::Alltoall, j))
            .collect();
        assert_eq!(fresh.stats().0, 0, "distinct keys never hit the memo");

        let tuner = Tuner::new([table()]);
        for _pass in 0..2 {
            for (j, w) in jobs().zip(&want) {
                assert_eq!(tuner.select_traced(Collective::Alltoall, j), *w);
            }
            assert_eq!(tuner.cached_decisions(), SHARD_CAP);
        }
        assert_eq!(
            tuner.stats(),
            (SHARD_CAP as u64, 400_000 - SHARD_CAP as u64)
        );
    }

    #[test]
    fn analytic_tier_sits_between_table_and_default_rules() {
        let node = pml_clusters::by_name("RI").unwrap().spec.node.clone();
        let tuner = Tuner::with_analytic([table()], node.clone());
        assert!(tuner.has_analytic());
        // Covered collective, exact cell: the table still wins.
        let (a, d) = tuner.select_traced(Collective::Alltoall, JobConfig::new(2, 8, 64));
        assert_eq!(
            (a, d),
            (
                Algorithm::Alltoall(AlltoallAlgo::Bruck),
                FallbackDepth::Exact
            )
        );
        // Uncovered collective: the analytic ranking decides, graded as
        // its own depth so the obs histogram can tell the tiers apart.
        let job = JobConfig::new(2, 2, 1024);
        let (a, d) = tuner.select_traced(Collective::Allgather, job);
        assert_eq!(d, FallbackDepth::Analytic);
        assert_eq!(d.as_u64(), 3);
        assert!(a.supports(job.world_size()));
        let analytic = crate::selectors::AnalyticSelector::new(node);
        assert_eq!(Some(a), analytic.try_select(Collective::Allgather, job));
        // Bit-identical decisions on a fresh tuner over the same inputs.
        let node = pml_clusters::by_name("RI").unwrap().spec.node.clone();
        let again = Tuner::with_analytic([table()], node);
        assert_eq!(again.select_traced(Collective::Allgather, job), (a, d));
    }

    #[test]
    fn plain_tuner_keeps_default_rules_for_uncovered_collectives() {
        let tuner = Tuner::new([table()]);
        assert!(!tuner.has_analytic());
        let job = JobConfig::new(2, 2, 1024);
        let (a, d) = tuner.select_traced(Collective::Allgather, job);
        assert_eq!(d, FallbackDepth::DefaultRules);
        assert_eq!(d.as_u64(), 4);
        assert_eq!(a, MvapichDefault.select(Collective::Allgather, job));
    }

    #[test]
    fn fallback_depth_grades_by_distance_from_the_table() {
        let tuner = Tuner::new([table()]);
        // Off-grid message size → nearest bucket.
        let (_, d) = tuner.select_traced(Collective::Alltoall, JobConfig::new(2, 8, 100));
        assert_eq!(d, FallbackDepth::NearestBucket);
        // No table for the collective → default rules.
        let (_, d) = tuner.select_traced(Collective::Allgather, JobConfig::new(2, 8, 64));
        assert_eq!(d, FallbackDepth::DefaultRules);
        // Inapplicable recommendation → substituted fallback.
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(
            3,
            2,
            64,
            Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling),
        )
        .unwrap();
        let tuner = Tuner::new([t]);
        let (a, d) = tuner.select_traced(Collective::Alltoall, JobConfig::new(3, 2, 64));
        assert_eq!(d, FallbackDepth::Substituted);
        assert!(a.supports(6));
    }
}
