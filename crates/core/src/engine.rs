//! [`SelectionEngine`] — one owner for the whole zoo → datagen → train →
//! tuning-table → [`Tuner`] lifecycle.
//!
//! The rest of the crate exposes each stage as a free-standing piece
//! (dataset generation in `pml-clusters`, training in [`crate::pipeline`],
//! tables in [`crate::tuning_table`], runtime lookups in [`crate::tuner`]).
//! The engine wires them together behind one facade with consistent
//! caching: each collective's dataset is loaded (from the on-disk cache,
//! when a cache directory is configured) or generated once per engine,
//! models are trained once per collective, and tuning tables are memoized
//! per (cluster, collective). This is the programmatic equivalent of the
//! CLI's `train` → `table` → `predict` workflow, what `examples/quickstart.rs`
//! drives, and what `pml-bench`'s experiments read their datasets from.
//!
//! The memos are plain fields: the steps that train or build a table take
//! `&mut self`, and only [`SelectionEngine::dataset`] fills a memo through
//! `&self` (a [`OnceLock`] per collective). An engine is still `Send +
//! Sync`; models are handed out as [`Arc<PretrainedModel>`] so a serving
//! loop can keep predicting from an engine-trained artifact on its own.

use crate::error::PmlError;
use crate::pipeline::{PretrainedModel, TrainConfig};
use crate::selectors::JobConfig;
use crate::tuner::Tuner;
use crate::tuning_table::TuningTable;
use pml_clusters::{
    generate_full, load_or_generate, CacheLoad, ClusterEntry, DatagenConfig, TuningRecord,
};
use pml_collectives::{Algorithm, Collective};
use pml_obs::{span, Counter};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

static TABLE_HIT: Counter = Counter::new("engine.table.hit");
static TABLE_MISS: Counter = Counter::new("engine.table.miss");

/// Engine settings: how to benchmark, how to train, where to cache.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    pub datagen: DatagenConfig,
    pub train: TrainConfig,
    /// Directory for on-disk dataset caches (`dataset_<collective>.json`).
    /// `None` generates each dataset in memory, once per engine.
    pub cache_dir: Option<PathBuf>,
}

/// Cache file name for one collective's dataset, matching the repo's
/// committed `data/dataset_*.json` convention.
fn dataset_file(collective: Collective) -> String {
    format!(
        "dataset_{}.json",
        collective.name().trim_start_matches("MPI_").to_lowercase()
    )
}

/// Owns the full offline-training + online-inference lifecycle.
/// `Send + Sync`: see the module docs.
#[derive(Debug)]
pub struct SelectionEngine {
    clusters: Vec<ClusterEntry>,
    cfg: EngineConfig,
    /// Indexed by `Collective as usize`; each load's cache warnings are the
    /// engine's diagnostics.
    datasets: [OnceLock<CacheLoad>; Collective::ALL.len()],
    models: BTreeMap<Collective, Arc<PretrainedModel>>,
    tables: BTreeMap<(String, Collective), TuningTable>,
}

impl SelectionEngine {
    /// Engine over the full 18-cluster zoo.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_clusters(pml_clusters::zoo().to_vec(), cfg)
    }

    /// Engine over an explicit cluster set (trimmed grids for tests and the
    /// quickstart example).
    pub fn with_clusters(clusters: Vec<ClusterEntry>, cfg: EngineConfig) -> Self {
        SelectionEngine {
            clusters,
            cfg,
            datasets: Default::default(),
            models: BTreeMap::new(),
            tables: BTreeMap::new(),
        }
    }

    /// This engine's training/benchmark configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn clusters(&self) -> &[ClusterEntry] {
        &self.clusters
    }

    /// Look a cluster up by name in this engine's zoo.
    pub fn entry(&self, name: &str) -> Result<&ClusterEntry, PmlError> {
        self.clusters
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| PmlError::UnknownCluster(name.to_string()))
    }

    /// Non-fatal diagnostics of the dataset loads so far (e.g. a corrupt
    /// cache that was regenerated), by collective.
    pub fn warnings(&self) -> Vec<String> {
        let loads = self.datasets.iter().filter_map(OnceLock::get);
        loads
            .flat_map(|load| load.warnings.iter().cloned())
            .collect()
    }

    /// The micro-benchmark dataset for one collective, loaded once per
    /// engine — from the on-disk cache when configured and valid,
    /// generated otherwise.
    pub fn dataset(&self, collective: Collective) -> Result<&[TuningRecord], PmlError> {
        let slot = &self.datasets[collective as usize];
        if let Some(load) = slot.get() {
            return Ok(&load.records);
        }
        let _span = span!("datagen", collective = collective.name());
        let load = match &self.cfg.cache_dir {
            Some(dir) => {
                let path = dir.join(dataset_file(collective));
                load_or_generate(&path, &self.clusters, collective, &self.cfg.datagen)?
            }
            None => CacheLoad {
                records: generate_full(&self.clusters, collective, &self.cfg.datagen)?,
                cached: false,
                warnings: Vec::new(),
            },
        };
        Ok(&slot.get_or_init(|| load).records)
    }

    /// Train (or fetch the already-trained) model for one collective.
    pub fn train(&mut self, collective: Collective) -> Result<Arc<PretrainedModel>, PmlError> {
        if let Some(m) = self.models.get(&collective) {
            return Ok(Arc::clone(m));
        }
        let records = self.dataset(collective)?;
        let model = {
            let _span = span!("train", collective = collective.name());
            Arc::new(PretrainedModel::train(
                records,
                collective,
                &self.cfg.train,
            )?)
        };
        self.models.insert(collective, Arc::clone(&model));
        Ok(model)
    }

    /// A model trained earlier in this engine's lifetime, if any.
    pub fn model(&self, collective: Collective) -> Option<Arc<PretrainedModel>> {
        self.models.get(&collective).map(Arc::clone)
    }

    /// Adopt an externally trained/deserialized artifact (the shipped-model
    /// deployment path: no benchmarking, no training).
    pub fn install_model(&mut self, model: PretrainedModel) {
        self.models.insert(model.collective, Arc::new(model));
    }

    /// The tuning table for one (cluster, collective), generating — and
    /// training first, if needed — on a miss. Tables are memoized, so the
    /// steady-state cost is a map probe plus one clone.
    pub fn tuning_table(
        &mut self,
        cluster: &str,
        collective: Collective,
    ) -> Result<TuningTable, PmlError> {
        let key = (cluster.to_string(), collective);
        if let Some(t) = self.tables.get(&key) {
            TABLE_HIT.inc();
            return Ok(t.clone());
        }
        TABLE_MISS.inc();
        let entry = self.entry(cluster)?.clone();
        let model = self.train(collective)?;
        let table = {
            let _span = span!("table", cluster = cluster, collective = collective.name());
            model.generate_tuning_table(&entry)?
        };
        self.tables.insert(key, table.clone());
        Ok(table)
    }

    /// Predict the algorithm for one job on one cluster (trains on first
    /// use; grid-independent — goes through the model, not the table).
    pub fn predict(
        &mut self,
        cluster: &str,
        collective: Collective,
        job: JobConfig,
    ) -> Result<Algorithm, PmlError> {
        let node = self.entry(cluster)?.spec.node.clone();
        let model = self.train(collective)?;
        Ok(model.predict(&node, job))
    }

    /// Build the runtime-side [`Tuner`] for a cluster from this engine's
    /// tables — the hand-off point to an MPI library. Queries no table
    /// answers (an uncovered collective, say) fall back to the analytic
    /// α-β-γ tier fitted for the cluster's node type before the static
    /// default rules get a say.
    pub fn tuner_for(
        &mut self,
        cluster: &str,
        collectives: &[Collective],
    ) -> Result<Tuner, PmlError> {
        let node = self.entry(cluster)?.spec.node.clone();
        let mut tables = Vec::with_capacity(collectives.len());
        for &c in collectives {
            tables.push(self.tuning_table(cluster, c)?);
        }
        Ok(Tuner::with_analytic(tables, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_mlcore::ForestParams;

    /// Two clusters with trimmed grids so tests stay fast.
    fn tiny_engine(cache_dir: Option<PathBuf>) -> SelectionEngine {
        let clusters: Vec<ClusterEntry> = ["RI", "Haswell"]
            .iter()
            .map(|name| {
                let mut e = pml_clusters::by_name(name).unwrap().clone();
                e.node_grid = vec![1, 2];
                e.ppn_grid = vec![2, 4];
                e.msg_grid = vec![16, 1024, 65536];
                e
            })
            .collect();
        let cfg = EngineConfig {
            datagen: DatagenConfig::noiseless(),
            train: TrainConfig {
                forest: ForestParams {
                    n_estimators: 10,
                    seed: 1,
                    ..Default::default()
                },
                top_k_features: Some(5),
            },
            cache_dir,
        };
        SelectionEngine::with_clusters(clusters, cfg)
    }

    #[test]
    fn full_lifecycle_trains_tables_and_tuner() {
        let mut eng = tiny_engine(None);
        assert!(eng.model(Collective::Alltoall).is_none());
        let table = eng.tuning_table("RI", Collective::Alltoall).unwrap();
        assert_eq!(table.len(), 2 * 2 * 3);
        assert!(eng.model(Collective::Alltoall).is_some());
        let tuner = eng.tuner_for("RI", &[Collective::Alltoall]).unwrap();
        assert_eq!(tuner.covered(), vec![Collective::Alltoall]);
        // Engine-built tuners carry the cluster's analytic fallback tier.
        assert!(tuner.has_analytic());
        let job = JobConfig::new(2, 4, 1024);
        let a = tuner.select(Collective::Alltoall, job);
        assert!(a.supports(job.world_size()));
    }

    #[test]
    fn tables_are_memoized() {
        let mut eng = tiny_engine(None);
        let a = eng.tuning_table("RI", Collective::Allgather).unwrap();
        let b = eng.tuning_table("RI", Collective::Allgather).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_cluster_is_an_error() {
        let mut eng = tiny_engine(None);
        assert!(eng.tuning_table("Atlantis", Collective::Allgather).is_err());
        assert!(eng
            .predict("Atlantis", Collective::Allgather, JobConfig::new(1, 2, 64))
            .is_err());
    }

    #[test]
    fn corrupt_dataset_cache_surfaces_as_warning_not_error() {
        let dir = std::env::temp_dir().join(format!("pmlengine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("dataset_allgather.json"), "{broken").unwrap();
        let eng = tiny_engine(Some(dir.clone()));
        let records = eng.dataset(Collective::Allgather).unwrap();
        assert!(!records.is_empty());
        assert_eq!(eng.warnings().len(), 1);
        assert!(eng.warnings()[0].contains("corrupt"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn installed_model_skips_training() {
        let eng = tiny_engine(None);
        let records = eng.dataset(Collective::Alltoall).unwrap();
        let model =
            PretrainedModel::train(records, Collective::Alltoall, &eng.config().train).unwrap();
        let mut deploy = tiny_engine(None);
        deploy.install_model(model.clone());
        // `train` must return the installed artifact untouched.
        let got = deploy.train(Collective::Alltoall).unwrap();
        assert_eq!(*got, model);
    }

    #[test]
    fn predict_is_applicable() {
        let mut eng = tiny_engine(None);
        let a = eng
            .predict("RI", Collective::Alltoall, JobConfig::new(3, 5, 777))
            .unwrap();
        assert!(a.supports(15));
        assert_eq!(a.collective(), Collective::Alltoall);
    }

    /// A cache that can be neither read nor written warns on every load,
    /// so the warnings count the loads: training and building a table on a
    /// loaded dataset add none.
    #[test]
    fn a_dataset_loads_once_per_engine() {
        let file = std::env::temp_dir().join(format!("pmlengine-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let mut eng = tiny_engine(Some(file.join("cache")));
        assert!(!eng.dataset(Collective::Alltoall).unwrap().is_empty());
        let first = eng.warnings();
        assert!(
            first.iter().any(|w| w.contains("could not persist")),
            "{first:?}"
        );
        eng.train(Collective::Alltoall).unwrap();
        eng.tuning_table("RI", Collective::Alltoall).unwrap();
        assert_eq!(eng.warnings(), first);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SelectionEngine>();
        assert_send_sync::<Arc<SelectionEngine>>();
    }
}
