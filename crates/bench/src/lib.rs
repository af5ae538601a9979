//! # pml-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md's per-experiment index). This library holds the shared
//! plumbing: dataset/model caching, the selector-vs-selector runtime
//! comparison loop, and plain-text table printing that mirrors the
//! paper's rows.

#![deny(rust_2018_idioms, missing_debug_implementations)]
#![deny(clippy::dbg_macro, clippy::todo)]
use pml_clusters::{ClusterEntry, DatagenConfig, TuningRecord};
use pml_collectives::Collective;
use pml_core::{AlgorithmSelector, JobConfig, PmlError, PretrainedModel, TrainConfig};
use pml_mlcore::ForestParams;
use std::path::{Path, PathBuf};

/// Repo-level `data/` directory used for dataset and model caches.
pub fn data_dir() -> PathBuf {
    // crates/bench → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("data")
}

/// Dataset-generation settings shared by every experiment (the "one
/// benchmarking campaign" the paper reuses throughout).
pub fn standard_datagen() -> DatagenConfig {
    DatagenConfig::default()
}

/// The full Table I dataset for one collective, from cache when possible.
/// Cache damage is non-fatal: the dataset regenerates and the reason lands
/// on stderr.
pub fn full_dataset(collective: Collective) -> Result<Vec<TuningRecord>, PmlError> {
    let file = match collective {
        Collective::Allgather => "dataset_allgather.json",
        Collective::Alltoall => "dataset_alltoall.json",
        other => {
            return Err(PmlError::InvalidInput(format!(
                "the Table I dataset covers the paper collectives only, not {other}"
            )))
        }
    };
    let load = pml_clusters::load_or_generate(
        &data_dir().join(file),
        pml_clusters::zoo(),
        collective,
        &standard_datagen(),
    )
    .map_err(PmlError::from)?;
    for ev in &load.events {
        eprintln!("warning: {}", ev.message);
    }
    Ok(load.records)
}

/// The paper's standard forest settings (100 trees, √d features).
pub fn standard_train() -> TrainConfig {
    TrainConfig {
        forest: ForestParams {
            n_estimators: 100,
            seed: 42,
            ..Default::default()
        },
        top_k_features: Some(5),
    }
}

/// Train a model on all records except the named clusters' (the paper's
/// leave-cluster-out protocol), caching the trained artifact on disk.
pub fn cached_model_excluding(
    collective: Collective,
    exclude: &[&str],
    records: &[TuningRecord],
) -> Result<PretrainedModel, PmlError> {
    let tag: String = if exclude.is_empty() {
        "all".into()
    } else {
        exclude.join("_").replace(' ', "-").to_lowercase()
    };
    let train: Vec<TuningRecord> = records
        .iter()
        .filter(|r| !exclude.contains(&r.cluster.as_str()))
        .cloned()
        .collect();
    // Key the cache by the training data's content, not just its size, so
    // a regenerated dataset can never resurrect a stale model.
    let mut h = 0xcbf29ce484222325u64;
    for r in &train {
        for b in [
            r.nodes as u64,
            r.ppn as u64,
            r.msg_size as u64,
            r.best.index() as u64,
        ] {
            h = (h ^ b).wrapping_mul(0x100000001b3);
        }
    }
    let path = data_dir().join(format!(
        "model_{}_excl_{tag}_{h:016x}.json",
        match collective {
            Collective::Allgather => "allgather",
            Collective::Alltoall => "alltoall",
            other =>
                return Err(PmlError::InvalidInput(format!(
                    "no cached models for extension collective {other}"
                ))),
        }
    ));
    if let Ok(s) = std::fs::read_to_string(&path) {
        if let Ok(m) = PretrainedModel::from_json(&s) {
            if m.collective == collective && m.n_training_records == train.len() {
                return Ok(m);
            }
        }
    }
    let model = PretrainedModel::train(&train, collective, &standard_train())?;
    std::fs::create_dir_all(data_dir()).ok();
    if let Ok(json) = model.to_json() {
        std::fs::write(&path, json).ok();
    }
    Ok(model)
}

/// One point of a selector-vs-selector runtime comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub msg_size: usize,
    /// (selector name, chosen algorithm name, runtime seconds).
    pub outcomes: Vec<(String, String, f64)>,
}

/// Compare selection strategies on a cluster over a message-size sweep at
/// one job shape, pricing each pick with the virtual-time executor.
pub fn compare_selectors(
    entry: &ClusterEntry,
    collective: Collective,
    nodes: u32,
    ppn: u32,
    msg_sizes: &[usize],
    selectors: &[&dyn AlgorithmSelector],
) -> Vec<ComparisonRow> {
    use pml_collectives::exec::sim;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    let layout = pml_simnet::JobLayout::new(nodes, ppn);
    let cost = pml_simnet::CostModel::new(entry.spec.node.clone(), ppn);
    let mut schedules: HashMap<pml_collectives::Algorithm, pml_collectives::CommSchedule> =
        HashMap::new();
    msg_sizes
        .iter()
        .map(|&m| {
            let job = JobConfig::new(nodes, ppn, m);
            let outcomes = selectors
                .iter()
                .map(|s| {
                    let algo = s.select(collective, job);
                    if let Entry::Vacant(slot) = schedules.entry(algo) {
                        if let Ok(sch) = algo.schedule(layout.world_size(), 1) {
                            slot.insert(sch);
                        }
                    }
                    // A selector picking an algorithm undefined at this world
                    // size scores as "never finishes" instead of panicking.
                    let t = match schedules.get(&algo) {
                        Some(schedule) => sim::run_scaled(schedule, layout, &cost, m).time_s,
                        None => f64::INFINITY,
                    };
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
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format seconds as microseconds with 2 decimals.
pub fn us(t: f64) -> String {
    format!("{:.2}", t * 1e6)
}

/// Format a ratio as a percentage speedup ("+12.3%" / "-4.5%").
pub fn pct(speedup: f64) -> String {
    format!("{:+.2}%", (speedup - 1.0) * 100.0)
}

/// The message-size sweep of the evaluation figures (powers of two).
pub fn msg_sweep(max_log2: u32) -> Vec<usize> {
    (0..=max_log2).map(|i| 1usize << i).collect()
}

/// Shorthand: a zoo entry that must exist.
pub fn cluster(name: &str) -> &'static ClusterEntry {
    pml_clusters::by_name(name).unwrap_or_else(|| panic!("cluster {name} not in zoo"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_core::{MvapichDefault, RandomSelector};

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
        let entry = cluster("RI");
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
    fn formatting_helpers() {
        assert_eq!(us(1.5e-6), "1.50");
        assert_eq!(pct(1.123), "+12.30%");
        assert_eq!(pct(0.95), "-5.00%");
    }
}
