//! The runtime-side tuner facade — the piece an MPI library links.
//!
//! At application startup the library builds one [`Tuner`] from the tuning
//! tables produced at compile time (Fig. 4's JSON artifacts, one per
//! collective), compiling each into a [`TableIndex`]. Every collective call
//! then asks the tuner which algorithm to run: two binary searches on the
//! grid, a walk over the table's shapes off it — the "constant time at
//! application runtime" the paper's title promises. A [`Tuner`] is
//! immutable once built (no lock, nothing remembered between calls),
//! `Send + Sync`, and designed to live in an [`std::sync::Arc`] shared by
//! every serving thread (see `pml-serve`).

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::error::PmlError;
use crate::selectors::{
    applicable_or_fallback, AlgorithmSelector, AnalyticSelector, JobConfig, MvapichDefault,
};
use crate::tuning_table::{TableIndex, TuningTable};
use pml_collectives::{Algorithm, Collective};
use pml_obs::Histogram;
use pml_simnet::NodeSpec;
use std::collections::BTreeMap;

/// How far each decision strayed from the pre-computed table — bucketed
/// by [`FallbackDepth`] (0 exact … 4 default rules).
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

/// Per-process algorithm selection over indexed tuning tables.
///
/// Thread-safety: nothing changes after construction, so any number of
/// threads may call [`Tuner::select`] concurrently on one shared
/// (`Arc`-wrapped) tuner. Ordered maps throughout: iteration order (e.g.
/// in [`Tuner::covered`]) is deterministic, never hash-seed dependent.
#[derive(Debug)]
pub struct Tuner {
    /// Per covered collective: its table compiled for lookup, and the
    /// cluster that table was measured on.
    tables: BTreeMap<Collective, (TableIndex, String)>,
    /// The analytic α-β-γ tier, graded between the table and the static
    /// default rules when present (see [`FallbackDepth::Analytic`]).
    analytic: Option<AnalyticSelector>,
}

impl Tuner {
    /// Build from tuning tables (typically deserialized from the JSON files
    /// next to the MPI library). Collectives without a table fall back to
    /// the library's static default rules.
    pub fn new(tables: impl IntoIterator<Item = TuningTable>) -> Self {
        Tuner {
            tables: tables
                .into_iter()
                .map(|t| (t.collective, (TableIndex::new(t.entries()), t.cluster)))
                .collect(),
            analytic: None,
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

    /// Load every `*.json` tuning table in a directory through the static
    /// verifier ([`crate::verify::verify_table`]: grid totality, collective
    /// consistency, fallback termination), damaged ones skipped with a
    /// warning as [`crate::verify::load_verified_dir`] rules.
    pub fn from_dir(dir: &std::path::Path) -> Result<(Self, Vec<String>), PmlError> {
        let (tables, warnings) =
            crate::verify::load_verified_dir(dir, "table", crate::verify::verify_table_json)?;
        Ok((Tuner::new(tables), warnings))
    }

    /// Which collectives have tables loaded.
    pub fn covered(&self) -> Vec<Collective> {
        self.tables.keys().copied().collect()
    }

    /// Cluster name the loaded table for `collective` was measured on, if
    /// a table is loaded. The serve-side quality monitor uses this to
    /// resolve the analytic referee for table-backed (`select`) answers.
    pub fn table_cluster(&self, collective: Collective) -> Option<&str> {
        Some(self.tables.get(&collective)?.1.as_str())
    }

    /// Pick the algorithm for one collective call.
    pub fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        self.select_traced(collective, job).0
    }

    /// Like [`Tuner::select`], but also report how the decision was
    /// reached. Every call is recorded in the `table.fallback.depth`
    /// histogram.
    pub fn select_traced(
        &self,
        collective: Collective,
        job: JobConfig,
    ) -> (Algorithm, FallbackDepth) {
        let (world, msg) = (job.world_size(), job.msg_size as u64);
        let table = || {
            let (t, _) = self.tables.get(&collective)?;
            let exact = t.get(job.nodes, job.ppn, msg);
            let raw = exact.or_else(|| t.nearest(job.nodes, job.ppn, msg))?;
            let applied = applicable_or_fallback(raw, world);
            let depth = if applied != raw {
                FallbackDepth::Substituted
            } else if exact.is_some() {
                FallbackDepth::Exact
            } else {
                FallbackDepth::NearestBucket
            };
            applied.supports(world).then_some((applied, depth))
        };
        let analytic = || {
            let a = self.analytic.as_ref()?.try_select(collective, job)?;
            a.supports(world).then_some((a, FallbackDepth::Analytic))
        };
        let decision = table().or_else(analytic).unwrap_or_else(|| {
            (
                MvapichDefault.select(collective, job),
                FallbackDepth::DefaultRules,
            )
        });
        FALLBACK_DEPTH.observe(decision.1.as_u64());
        decision
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
        // A repeat reports the same depth.
        assert_eq!(
            tuner.select_traced(Collective::Alltoall, job),
            (a, FallbackDepth::Exact)
        );
    }

    /// A tuner in an `Arc` is usable from any number of threads, at compile time.
    #[test]
    fn tuner_is_send_sync_and_arc_shareable() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Tuner>();
        assert_send_sync::<std::sync::Arc<Tuner>>();
    }

    /// A client cycling through 200 000 distinct message sizes gets on a
    /// second pass what it got on the first, and what a scan of the table says.
    #[test]
    fn distinct_keys_answer_the_same_on_every_pass() {
        let jobs = || (0..200_000).map(|i| JobConfig::new(2, 8, 1 + 37 * i));
        let (scanned, tuner) = (table(), Tuner::new([table()]));
        let pass = || jobs().map(|j| tuner.select_traced(Collective::Alltoall, j));
        let first: Vec<_> = pass().collect();
        assert!(pass().eq(first.iter().copied()));
        for (j, (algo, _)) in jobs().zip(first) {
            let msg = j.msg_size as u64;
            let scan = scanned.get(2, 8, msg).or(scanned.lookup(2, 8, msg));
            assert_eq!(scan, Some(algo));
        }
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
