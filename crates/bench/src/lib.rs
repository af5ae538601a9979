//! # pml-bench
//!
//! The experiment runner: every table and figure of the paper is one row of
//! [`EXPERIMENTS`], a function from one shared [`Context`] (datasets and
//! leave-out models, each built once per process, on first use) to a
//! [`Report`]. `cargo run --release -p pml-bench -- [name…]` prints the
//! reports and records them in `EXPERIMENTS.json` (see DESIGN.md §4).

mod compare;
mod experiments;
mod report;

// Table II's comparison learners and the model selection that tunes them
// (§V-C, §VI): evaluation code, so no binary that loads a model links them.
// One directory, so the lint scopes name them once; each mounted as a root
// module (`crate::gboost`, `crate::metrics`, …).
#[path = "learners/gboost.rs"]
pub mod gboost;
#[path = "learners/knn.rs"]
pub mod knn;
#[path = "learners/metrics.rs"]
pub mod metrics;
#[path = "learners/model_selection.rs"]
pub mod model_selection;
#[path = "learners/svm.rs"]
pub mod svm;

pub use report::Report;

use pml_clusters::{ClusterEntry, TuningRecord};
use pml_collectives::Collective;
use pml_core::{
    AlgorithmSelector, EngineConfig, JobConfig, MlSelector, PmlError, PretrainedModel,
    SelectionEngine, TrainConfig,
};
use serde_json::JsonValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// One experiment: its name on the command line, and the function behind it.
pub type Experiment = (&'static str, fn(&Context) -> Result<Report, PmlError>);

/// Every table and figure, in the order they run: the paper's, except that
/// `fig07` comes before anything that extracts features for Frontera's job
/// layouts, so the table generation it times is the cold one a new
/// deployment pays (the cost polynomials are cached per process).
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig01", experiments::fig01),
    ("fig02", experiments::fig02),
    ("fig07", experiments::fig07),
    ("fig05_06", experiments::fig05_06),
    ("table1", experiments::table1),
    ("table2", experiments::table2),
    ("table3", experiments::table3),
    ("fig08", |ctx| compare::figure(ctx, 8)),
    ("fig09", |ctx| compare::figure(ctx, 9)),
    ("fig10", |ctx| compare::figure(ctx, 10)),
    ("fig11", |ctx| compare::figure(ctx, 11)),
    ("fig12", |ctx| compare::figure(ctx, 12)),
    ("fig13", experiments::fig13),
    ("summary", compare::summary),
    ("ablation_features", experiments::ablation_features),
    ("ablation_forest_size", experiments::ablation_forest_size),
    ("ext_collectives", experiments::ext_collectives),
];

/// The clusters the evaluation treats as new: no model that selects for
/// them has seen their records (§VII-C).
const HELD_OUT: [&str; 2] = ["Frontera", "MRI"];

/// The repository root (crates/bench → two levels up).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A leave-out model is known by its collective and the clusters held out.
type ModelKey = (Collective, Vec<String>);

/// What the experiments share, each part built once per process, on first
/// use: a [`SelectionEngine`]'s Table I datasets and the leave-out models.
#[derive(Debug)]
pub struct Context {
    engine: SelectionEngine,
    models: RefCell<BTreeMap<ModelKey, Rc<PretrainedModel>>>,
}

impl Context {
    /// The standard forest trained on every record except the named
    /// clusters' (the paper's leave-cluster-out protocol).
    pub fn model_excluding(
        &self,
        collective: Collective,
        exclude: &[&str],
    ) -> Result<Rc<PretrainedModel>, PmlError> {
        let key = (collective, exclude.iter().map(|c| c.to_string()).collect());
        if let Some(model) = self.models.borrow().get(&key) {
            return Ok(Rc::clone(model));
        }
        let kept = |r: &&TuningRecord| !exclude.contains(&r.cluster.as_str());
        let train: Vec<TuningRecord> = self
            .engine
            .dataset(collective)?
            .iter()
            .filter(kept)
            .cloned()
            .collect();
        let model = Rc::new(PretrainedModel::train(
            &train,
            collective,
            &TrainConfig::default(),
        )?);
        self.models.borrow_mut().insert(key, Rc::clone(&model));
        Ok(model)
    }

    /// The proposed selector on `entry`, Frontera and MRI held out of both
    /// of its models.
    pub fn proposed(&self, entry: &ClusterEntry) -> Result<MlSelector, PmlError> {
        let model = |c| Ok::<_, PmlError>(Some((*self.model_excluding(c, &HELD_OUT)?).clone()));
        MlSelector::new(
            entry.spec.node.clone(),
            model(Collective::Allgather)?,
            model(Collective::Alltoall)?,
        )
    }
}

/// The table rows named on the command line, in table order; all of them
/// for no name.
pub fn select(names: &[String]) -> Result<Vec<Experiment>, PmlError> {
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    if let Some(name) = names.iter().find(|n| !known.contains(&n.as_str())) {
        let known = known.join(" ");
        let why = format!("unknown experiment `{name}`; the experiments are: {known}");
        return Err(PmlError::InvalidInput(why));
    }
    let named = |e: &&Experiment| names.is_empty() || names.iter().any(|n| n == e.0);
    Ok(EXPERIMENTS.iter().filter(named).copied().collect())
}

/// Run the named experiments (all for no name) over one [`Context`], print
/// their reports, and record them in `EXPERIMENTS.json`; the entries of
/// experiments that did not run are kept as they are.
pub fn run(names: &[String]) -> Result<(), PmlError> {
    let chosen = select(names)?;
    let ctx = Context {
        engine: SelectionEngine::new(EngineConfig {
            cache_dir: Some(repo_root().join("data")),
            ..EngineConfig::default()
        }),
        models: RefCell::default(),
    };
    let reports: Result<BTreeMap<_, _>, PmlError> = chosen
        .into_iter()
        .map(|(name, experiment)| {
            let t0 = Instant::now();
            let report = experiment(&ctx)?;
            report.print();
            eprintln!("-- {name}: {:.1} s", t0.elapsed().as_secs_f64());
            Ok((name, report))
        })
        .collect();
    // A damaged dataset cache was regenerated; say so even after a failure.
    for warning in ctx.engine.warnings() {
        eprintln!("warning: {warning}");
    }
    let reports = reports?;
    let path = repo_root().join("EXPERIMENTS.json");
    let old: Option<JsonValue> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    let kept = |half: &str, name: &str| old.as_ref()?.get(half)?.get(name).cloned();
    let half = |key: &str, wall_clock: bool| {
        let entries = EXPERIMENTS.iter().filter_map(|(name, _)| {
            let entry = match reports.get(name) {
                Some(report) => report.to_json(wall_clock),
                None => kept(key, name),
            };
            Some((name.to_string(), entry?))
        });
        (key.to_string(), JsonValue::Object(entries.collect()))
    };
    // `wall_clock` is the one part that is not a pure function of the tree.
    let doc = JsonValue::Object(vec![half("experiments", false), half("wall_clock", true)]);
    let text = serde_json::to_string_pretty(&doc)? + "\n";
    std::fs::write(&path, text).map_err(|source| PmlError::Io { path, source })
}

/// One point of a selector-vs-selector runtime comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub msg_size: usize,
    /// (selector name, chosen algorithm name, runtime seconds).
    pub outcomes: Vec<(String, String, f64)>,
}

/// Compare selection strategies on a cluster over a message-size sweep at
/// one job shape, pricing each pick as the micro-benchmark does
/// ([`pml_collectives::Pricer`]).
pub fn compare_selectors(
    entry: &ClusterEntry,
    collective: Collective,
    nodes: u32,
    ppn: u32,
    msg_sizes: &[usize],
    selectors: &[&dyn AlgorithmSelector],
) -> Vec<ComparisonRow> {
    let layout = pml_simnet::JobLayout::new(nodes, ppn);
    let cost = pml_simnet::CostModel::new(entry.spec.node.clone(), ppn);
    let mut pricer = pml_collectives::Pricer::new(&cost, layout);
    msg_sizes
        .iter()
        .map(|&m| {
            let job = JobConfig::new(nodes, ppn, m);
            let outcomes = selectors
                .iter()
                .map(|s| {
                    // A selector picking an algorithm undefined at this world
                    // size scores as "never finishes" instead of panicking.
                    let algo = s.select(collective, job);
                    let t = pricer.time(algo, m);
                    (s.name().to_string(), algo.name().to_string(), t)
                })
                .collect();
            ComparisonRow {
                msg_size: m,
                outcomes,
            }
        })
        .collect()
}

/// Geometric-mean speedup of selector 0 over selector `idx` across rows.
pub fn geomean_speedup(rows: &[ComparisonRow], over_idx: usize) -> f64 {
    let mut log_sum = 0.0;
    for row in rows {
        let t0 = row.outcomes[0].2;
        let t1 = row.outcomes[over_idx].2;
        log_sum += (t1 / t0).ln();
    }
    (log_sum / rows.len() as f64).exp()
}

/// Fixed-width plain-text table, paper style.
pub fn format_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("\n== {title} ==\n");
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  "));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    rows.iter().for_each(|row| line(row));
    out
}

/// Format seconds as microseconds with 2 decimals.
pub fn us(t: f64) -> String {
    format!("{:.2}", t * 1e6)
}

/// Format a ratio as a percentage speedup ("+12.3%" / "-4.5%").
pub fn pct(speedup: f64) -> String {
    format!("{:+.2}%", pct_points(speedup))
}

/// A ratio as the percentage points [`pct`] prints.
pub fn pct_points(speedup: f64) -> f64 {
    (speedup - 1.0) * 100.0
}

/// The message-size sweep of the evaluation figures (powers of two).
pub fn msg_sweep(max_log2: u32) -> Vec<usize> {
    (0..=max_log2).map(|i| 1usize << i).collect()
}

/// A zoo entry by name.
pub fn cluster(name: &str) -> Result<&'static ClusterEntry, PmlError> {
    pml_clusters::by_name(name).ok_or_else(|| PmlError::UnknownCluster(name.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::{measure_algo, Algorithm, AllgatherAlgo, AllreduceAlgo};
    use pml_core::{MvapichDefault, RandomSelector};
    use pml_simnet::{CostModel, JobLayout};

    #[test]
    fn experiment_names_are_unique() {
        let names: std::collections::BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    /// The names heading the table rows (`| \`name\` | …`) of one `## `
    /// section of a document at the repository root.
    fn names_listed_in(doc: &str, heading: &str) -> Vec<String> {
        let text = std::fs::read_to_string(repo_root().join(doc)).unwrap();
        let section = text.split_once(heading).expect(heading).1;
        let section = section.split("\n## ").next().unwrap();
        let rows = section.lines().filter_map(|l| l.strip_prefix("| `"));
        rows.map(|l| l.split('`').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn readme_and_design_list_exactly_the_table() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        let readme = names_listed_in("README.md", "## Reproducing the paper's tables and figures");
        assert_eq!(readme, names);
        assert_eq!(
            names_listed_in("DESIGN.md", "## 4. Per-experiment index"),
            names
        );
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_names() {
        let err = select(&["fig02".into(), "fig99".into()]).unwrap_err();
        assert!(matches!(err, PmlError::InvalidInput(_)), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("`fig99`"), "{message}");
        for (name, _) in EXPERIMENTS {
            assert!(message.contains(name), "{name} missing from: {message}");
        }
        let picked = select(&["summary".into(), "fig01".into()]).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.0).collect::<Vec<_>>(),
            ["fig01", "summary"]
        );
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
    }

    #[test]
    fn a_context_trains_each_leave_out_model_once() {
        let clusters = ["RI", "RI2", "Haswell"].map(|name| {
            let mut entry = cluster(name).unwrap().clone();
            entry.node_grid.truncate(2);
            entry.ppn_grid.truncate(2);
            entry
        });
        let ctx = Context {
            engine: SelectionEngine::with_clusters(clusters.to_vec(), EngineConfig::default()),
            models: RefCell::default(),
        };
        let records = ctx.engine.dataset(Collective::Allgather).unwrap();
        let kept = records.iter().filter(|r| r.cluster != "RI2").count();
        let first = ctx
            .model_excluding(Collective::Allgather, &["RI2"])
            .unwrap();
        let again = ctx
            .model_excluding(Collective::Allgather, &["RI2"])
            .unwrap();
        assert!(Rc::ptr_eq(&first, &again), "the second request retrained");
        assert_eq!(first.n_training_records, kept);
        let other = ctx.model_excluding(Collective::Allgather, &["RI"]).unwrap();
        assert!(!Rc::ptr_eq(&first, &other));
        assert_eq!(ctx.models.borrow().len(), 2);
    }

    #[test]
    fn msg_sweep_is_powers_of_two() {
        assert_eq!(msg_sweep(3), vec![1, 2, 4, 8]);
    }

    #[test]
    fn geomean_of_identical_outcomes_is_one() {
        let rows = vec![ComparisonRow {
            msg_size: 8,
            outcomes: vec![
                ("a".into(), "x".into(), 2.0e-6),
                ("b".into(), "x".into(), 2.0e-6),
            ],
        }];
        assert!((geomean_speedup(&rows, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compare_selectors_prices_every_size() {
        let entry = cluster("RI").unwrap();
        let mvapich = MvapichDefault;
        let random = RandomSelector::new(1);
        let sels: [&dyn pml_core::AlgorithmSelector; 2] = [&mvapich, &random];
        let sizes = [16usize, 2048];
        let rows = compare_selectors(entry, Collective::Allgather, 2, 4, &sizes, &sels);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.outcomes.len(), 2);
            assert!(r.outcomes.iter().all(|(_, _, t)| *t > 0.0));
        }
    }

    #[test]
    fn compare_selectors_prices_like_the_micro_benchmark() {
        // Ring reduce-scatter's segments depend on the message size, so its
        // unit plan scaled up is the wrong price.
        struct Fixed(Algorithm);
        impl AlgorithmSelector for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn select(&self, _: Collective, _: JobConfig) -> Algorithm {
                self.0
            }
        }
        let entry = cluster("RI").unwrap();
        let (layout, msg) = (JobLayout::new(2, 4), 65536);
        let cost = CostModel::new(entry.spec.node.clone(), layout.ppn);
        for algo in [
            Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter),
            Algorithm::Allgather(AllgatherAlgo::Ring),
        ] {
            let rows = compare_selectors(entry, algo.collective(), 2, 4, &[msg], &[&Fixed(algo)]);
            assert_eq!(
                rows[0].outcomes[0].2.to_bits(),
                measure_algo(algo, &cost, layout, &[msg])[0].to_bits(),
                "{algo}"
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(1.5e-6), "1.50");
        assert_eq!(pct(1.123), "+12.30%");
        assert_eq!(pct(0.95), "-5.00%");
    }
}
