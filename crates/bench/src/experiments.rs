//! The experiments that are not selector-vs-selector sweeps (`compare.rs`
//! has those). What each reproduces, and how it came out, is in
//! EXPERIMENTS.md under the same name.

use crate::gboost::{GBoostParams, GradientBoosting};
use crate::knn::{Knn, KnnParams};
use crate::metrics::accuracy;
use crate::model_selection::{grid_search, train_test_split, Scoring};
use crate::svm::{LinearSvm, SvmParams};
use crate::{
    cluster, compare_selectors, geomean_speedup, msg_sweep, pct, pct_points, us, Context, Report,
    HELD_OUT,
};
use pml_apps::{run_app, Gromacs, MiniFe, Workload};
use pml_clusters::{ClusterEntry, DatagenConfig, Split, TuningRecord};
use pml_collectives::{measure_sweep, Algorithm, Collective};
use pml_core::features::MPI_FEATURES;
use pml_core::{
    overhead, records_to_dataset, AlgorithmSelector, JobConfig, MlSelector, MvapichDefault,
    PmlError, PretrainedModel, RandomSelector, TrainConfig, FEATURE_NAMES,
};
use pml_mlcore::{Classifier, Dataset, ForestParams, RandomForest};
use pml_simnet::JobLayout;
use std::time::Instant;

/// Frontera at full subscription, the shape of the overhead figures.
const PPN: u32 = 56;

fn percent(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

/// Exact-argmin accuracy of `model` on `test`.
fn score(
    model: &PretrainedModel,
    test: &[TuningRecord],
    coll: Collective,
) -> Result<f64, PmlError> {
    let data = records_to_dataset(test, coll)?;
    Ok(accuracy(&data.y, &model.predict_dataset(&data)))
}

/// The leave-clusters-out split of Table III and both ablations.
fn unseen_clusters(ctx: &Context, coll: Collective) -> Result<Split, PmlError> {
    let (split, held) = pml_clusters::cluster_split_auto(ctx.engine.dataset(coll)?, 0.7, 7)?;
    eprintln!("{coll}: held-out clusters {held:?}");
    Ok(split)
}

/// Core-hours of micro-benchmarking Frontera up to `nodes` nodes (Figs. 1, 7).
fn microbench(frontera: &ClusterEntry, nodes: u32) -> f64 {
    overhead::microbench_core_hours_cumulative(frontera, Collective::Allgather, nodes, PPN)
}

/// Fig. 1. Measured at the node counts the simulator can execute (1–16),
/// extrapolated beyond from the power law fitted to them (marked `~`).
/// ACCLAiM's line is its published 128-node anchor billed on every core.
pub(crate) fn fig01(_: &Context) -> Result<Report, PmlError> {
    let frontera = cluster("Frontera")?;
    let measured = [1u32, 2, 4, 8, 16].map(|n| (n, microbench(frontera, n)));
    // Power-law fit log(ch) = a + b log(n) over the measured tail.
    let tail = &measured[1..];
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(n, ch) in tail {
        let (x, y) = ((n as f64).ln(), ch.ln());
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let k = tail.len() as f64;
    let b = (k * sxy - sx * sy) / (k * sxx - sx * sx);
    let a = (sy - b * sx) / k;

    let row = |n: u32| {
        let (mb, mark) = match measured.iter().find(|(mn, _)| *mn == n) {
            Some(&(_, ch)) => (ch, ""),
            None => ((a + b * (n as f64).ln()).exp(), "~"),
        };
        let acclaim = overhead::acclaim_core_hours(n, PPN);
        vec![
            n.to_string(),
            format!("{mark}{mb:.3e}"),
            format!("{acclaim:.3e}"),
        ]
    };
    let mut report = Report::default();
    report.table(
        "Fig. 1 — Core-hours on Frontera (PPN=56, MPI_Allgather)",
        "nodes | offline-microbench (core-h) | ACCLAiM lower bound (core-h)",
        (0..=13).map(|i| row(1 << i)).collect(),
    );
    report.line(format!(
        "\nmicrobench power-law exponent b = {b:.2} (core-hours ~ nodes^b)"
    ));
    report.line("('~' = extrapolated beyond the simulatable range)");
    report.finding("exponent", b);
    Ok(report)
}

/// Fig. 2: the same MPI_Alltoall algorithms on Frontera and MRI at
/// 2 nodes × 16 PPN, 1 B – 16 KiB as in the figure.
pub(crate) fn fig02(_: &Context) -> Result<Report, PmlError> {
    let sizes = msg_sweep(14);
    let alltoall = Algorithm::all_for(Collective::Alltoall);
    let algos: Vec<&str> = alltoall.iter().map(|a| a.name()).collect();
    let headers = format!("msg(B) | {}", algos.join(" | "));
    let mut report = Report::default();
    for name in HELD_OUT {
        let node = &cluster(name)?.spec.node;
        let sweep = measure_sweep(Collective::Alltoall, node, JobLayout::new(2, 16), &sizes);
        let rows = sweep.iter().zip(&sizes).map(|(col, m)| {
            let mut row = vec![m.to_string()];
            for &algo in alltoall {
                let hit = col.iter().find(|&&(a, _)| a == algo);
                row.push(us(hit.map_or(f64::NAN, |(_, t)| *t)));
            }
            row
        });
        report.table(
            &format!("Fig. 2 — MPI_Alltoall runtimes (us) on {name}, 2 nodes x 16 PPN"),
            &headers,
            rows.collect(),
        );
        // Winner per size, to make the cross-cluster flip visible.
        let winners = sweep.iter().zip(&sizes).filter_map(|(col, m)| {
            let best = col.iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
            Some(format!("{m}B:{}", best.0.name()))
        });
        let winners: Vec<String> = winners.collect();
        report.line(format!("winners: {}", winners.join(" ")));
    }
    Ok(report)
}

/// Figs. 5 & 6: Gini importance of every feature in the forest trained on
/// the full dataset.
pub(crate) fn fig05_06(ctx: &Context) -> Result<Report, PmlError> {
    let mut report = Report::default();
    for (fig, coll) in [(5, Collective::Allgather), (6, Collective::Alltoall)] {
        let model = ctx.model_excluding(coll, &[])?;
        let mut scored: Vec<(usize, f64)> = model
            .full_importances()
            .iter()
            .copied()
            .enumerate()
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut rows = Vec::new();
        for (i, s) in scored {
            let selected = model.selected_features().contains(&i);
            report.finding(format!("importance.{coll}.{}", FEATURE_NAMES[i]), s);
            rows.push(vec![
                FEATURE_NAMES[i].to_string(),
                format!("{s:.4}"),
                if selected { "top-5 *" } else { "" }.to_string(),
            ]);
        }
        let records = ctx.engine.dataset(coll)?.len();
        report.table(
            &format!("Fig. {fig} — feature importance, {coll} ({records} records)"),
            "feature | gini importance | selected",
            rows,
        );
    }
    Ok(report)
}

/// Table I: the zoo's processors, interconnects and grid sizes, with our
/// generated record counts per collective.
pub(crate) fn table1(ctx: &Context) -> Result<Report, PmlError> {
    let ag = ctx.engine.dataset(Collective::Allgather)?;
    let aa = ctx.engine.dataset(Collective::Alltoall)?;
    let count = |recs: &[TuningRecord], name: &str| {
        let own = recs.iter().filter(|r| r.cluster == name);
        own.count().to_string()
    };
    let row = |c: &ClusterEntry| {
        vec![
            c.name().to_string(),
            c.spec.node.cpu.model.clone(),
            c.spec.node.nic.generation.name().to_string(),
            c.node_grid.len().to_string(),
            c.ppn_grid.len().to_string(),
            c.msg_grid.len().to_string(),
            count(ag, c.name()),
            count(aa, c.name()),
        ]
    };
    let mut report = Report::default();
    report.table(
        "Table I — dataset overview",
        "cluster | processor | interconnect | #nodes | #ppn | #msg | #allgather | #alltoall",
        pml_clusters::zoo().iter().map(row).collect(),
    );
    let (n_ag, n_aa) = (ag.len(), aa.len());
    report.line(format!(
        "\ntotal records: allgather {n_ag} + alltoall {n_aa} = {}",
        n_ag + n_aa
    ));
    report.line("(paper: >9000 records across both collectives; our counts are the full grids)");
    report.finding("records.MPI_Allgather", n_ag as f64);
    report.finding("records.MPI_Alltoall", n_aa as f64);
    Ok(report)
}

/// Test accuracy of the candidate that wins a 3-fold, AUC-scored grid
/// search on `train` (§V-C).
fn tuned_accuracy<P: Clone, M: Classifier>(
    (train, test): &(Dataset, Dataset),
    grid: &[P],
    make: impl Fn(&P) -> M,
) -> Result<f64, PmlError> {
    let (best, _) = grid_search(train, grid, 3, 0, Scoring::MacroAuc, &make)?;
    let mut model = make(&best);
    model.fit(&train.x, &train.y, train.n_classes)?;
    Ok(accuracy(&test.y, &model.predict(&test.x)))
}

/// Table II: RF, GBM, KNN and SVM after hyperparameter tuning on a random
/// 70/30 split. The slow one: every candidate is cross-validated on ~7k
/// records.
pub(crate) fn table2(ctx: &Context) -> Result<Report, PmlError> {
    let forest = |n_estimators, max_depth| ForestParams {
        n_estimators,
        max_depth,
        ..Default::default()
    };
    let boost = |n_estimators, max_depth| GBoostParams {
        n_estimators,
        max_depth,
        ..Default::default()
    };
    let svm = |lambda| SvmParams {
        lambda,
        epochs: 25,
        ..Default::default()
    };
    let mut report = Report::default();
    let mut rows = Vec::new();
    for coll in Collective::PAPER {
        let data = records_to_dataset(ctx.engine.dataset(coll)?, coll)?;
        let split = train_test_split(&data, 0.3, 42)?;
        eprintln!("{coll}: {} train / {} test", split.0.len(), split.1.len());
        let rf_grid = [forest(60, None), forest(100, None), forest(100, Some(14))];
        let gb_grid = [boost(40, 3), boost(60, 4)];
        let knn_grid = [3, 7, 15].map(|k| KnnParams { k });
        let svm_grid = [svm(1e-3), svm(1e-4)];
        let accuracies = [
            (
                "rf",
                tuned_accuracy(&split, &rf_grid, |p| RandomForest::new(*p))?,
            ),
            (
                "gbm",
                tuned_accuracy(&split, &gb_grid, |p| GradientBoosting::new(*p))?,
            ),
            ("knn", tuned_accuracy(&split, &knn_grid, |p| Knn::new(*p))?),
            (
                "svm",
                tuned_accuracy(&split, &svm_grid, |p| LinearSvm::new(*p))?,
            ),
        ];
        let mut row = vec![coll.to_string()];
        for (model, acc) in accuracies {
            report.finding(format!("{model}_pct.{coll}"), acc * 100.0);
            row.push(percent(acc));
        }
        rows.push(row);
    }
    report.table(
        "Table II — test accuracy after hyperparameter tuning",
        "collective | RF | GradientBoost | KNN | SVM",
        rows,
    );
    report.line("\n(paper: RF 88.8/89.9, GB 80.5/78.4, KNN 64.1/61.9, SVM 67.3/60.4 —");
    report.line(" the reproduction target is the ordering RF > GB > KNN/SVM)");
    Ok(report)
}

/// Table III: the standard forest under the three split methodologies —
/// random 70/30, leave-clusters-out, train on ≤ 8 nodes and test above.
pub(crate) fn table3(ctx: &Context) -> Result<Report, PmlError> {
    let mut report = Report::default();
    let mut rows = Vec::new();
    for coll in Collective::PAPER {
        let records = ctx.engine.dataset(coll)?;
        let splits = [
            ("random", pml_clusters::random_split(records, 0.7, 42)?),
            ("cluster", unseen_clusters(ctx, coll)?),
            ("node", pml_clusters::node_split(records, 8)),
        ];
        let mut row = vec![coll.to_string()];
        for (split, (train, test)) in splits {
            let model = PretrainedModel::train(&train, coll, &TrainConfig::default())?;
            let acc = score(&model, &test, coll)?;
            report.finding(format!("{split}_pct.{coll}"), acc * 100.0);
            row.push(percent(acc));
        }
        rows.push(row);
    }
    report.table(
        "Table III — classification accuracy by split methodology",
        "collective | random | cluster | node",
        rows,
    );
    report.line("\n(paper: Allgather 88.8/84.4/79.8, Alltoall 89.9/82.7/86.7 —");
    report.line(" the target shape: random >= cluster, node; all well above chance)");
    Ok(report)
}

/// Fig. 7: Fig. 1 plus the proposed framework, whose overhead is one
/// single-process table generation by a model that has not seen Frontera.
/// Whatever derives from that measured time is wall-clock.
pub(crate) fn fig07(ctx: &Context) -> Result<Report, PmlError> {
    let frontera = cluster("Frontera")?;
    let model = ctx.model_excluding(Collective::Allgather, &["Frontera"])?;
    let inference_s = overhead::measure_inference_seconds(&model, frontera)?;
    let proposed = overhead::proposed_core_hours(inference_s);
    let mut report = Report::default();
    report.line(format!(
        "tuning-table inference time on Frontera grid: {inference_s:.4} s (one process)"
    ));
    let row = |n: u32| {
        let acclaim = overhead::acclaim_core_hours(n, PPN);
        let microbench = match n {
            ..=16 => format!("{:.3e}", microbench(frontera, n)),
            _ => "(see fig01 extrapolation)".to_string(),
        };
        vec![
            n.to_string(),
            microbench,
            format!("{acclaim:.3e}"),
            format!("{proposed:.3e}"),
        ]
    };
    report.timed_table(
        "Fig. 7 — core-hours incl. the proposed framework (Frontera, PPN=56)",
        "nodes | offline-microbench | ACCLAiM (lower bound) | proposed",
        [1, 2, 4, 8, 16, 32, 128].map(row).to_vec(),
    );
    let vs_microbench = microbench(frontera, 16) / proposed;
    let vs_acclaim = overhead::acclaim_core_hours(128, PPN) / proposed;
    report.line(format!(
        "\nspeedup vs microbench@16 nodes: {vs_microbench:.1e}x"
    ));
    report.line(format!("speedup vs ACCLAiM@128 nodes:   {vs_acclaim:.1e}x"));
    report.line("(paper: ~1e6x vs microbench@32, ~1e4x vs ACCLAiM@128)");
    report.timing("inference_s", inference_s);
    report.timing("vs_microbench_16_nodes_x", vs_microbench);
    report.timing("vs_acclaim_128_nodes_x", vs_acclaim);
    Ok(report)
}

/// Fig. 13: the Gromacs/BenchMEM proxy and MiniFE under the proposed
/// selector, the MVAPICH default and random selection, strong-scaling on
/// Frontera.
pub(crate) fn fig13(ctx: &Context) -> Result<Report, PmlError> {
    let frontera = cluster("Frontera")?;
    let (proposed, random) = (ctx.proposed(frontera)?, RandomSelector::new(99));
    let selectors: [&dyn AlgorithmSelector; 3] = [&proposed, &MvapichDefault, &random];
    let (gromacs, minife) = (Gromacs::default(), MiniFe::default());
    let apps: [&dyn Workload; 2] = [&gromacs, &minife];
    let mut report = Report::default();
    for app in apps {
        let mut rows = Vec::new();
        let mut sums = [0.0f64; 3];
        for nodes in [1u32, 2, 4, 8, 16] {
            let mut row = vec![format!("{}", nodes * PPN)];
            for (sum, selector) in sums.iter_mut().zip(selectors) {
                let layout = JobLayout::new(nodes, PPN);
                let total_s = run_app(app, &frontera.spec.node, layout, selector).total_s;
                *sum += total_s;
                row.push(format!("{:.2}ms", total_s * 1e3));
            }
            rows.push(row);
        }
        let name = app.name();
        report.table(
            &format!("Fig. 13 — {name} total runtime on Frontera (strong scaling, PPN=56)"),
            "#processes | proposed | mvapich-default | random",
            rows,
        );
        let (vs_default, vs_random) = (sums[1] / sums[0], sums[2] / sums[0]);
        report.line(format!(
            "aggregate speedup vs default: {} | vs random: {}",
            pct(vs_default),
            pct(vs_random),
        ));
        report
            .line("(paper: Gromacs +2.90% vs default, +19.39% vs random; MiniFE +4.43% / +20.66%)");
        report.finding(format!("vs_default_pct.{name}"), pct_points(vs_default));
        report.finding(format!("vs_random_pct.{name}"), pct_points(vs_random));
    }
    Ok(report)
}

/// Geomean slowdown of the model's picks relative to each record's true
/// optimum — the metric that decides application runtime. Exact-argmin
/// accuracy under-credits a model that picks near-tied runners-up.
fn slowdown(model: &PretrainedModel, test: &[TuningRecord]) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for r in test {
        // A record naming an unregistered cluster has no spec to predict
        // from; drop it from the geomean like the `slowdown_of` None path.
        let Some(entry) = pml_clusters::by_name(&r.cluster) else {
            continue;
        };
        let pick = model.predict(&entry.spec.node, JobConfig::new(r.nodes, r.ppn, r.msg_size));
        if let Some(s) = r.slowdown_of(pick) {
            log_sum += s.ln();
            n += 1;
        }
    }
    (log_sum / n as f64).exp()
}

/// Ablation: what the hardware features buy on unseen clusters — every
/// feature with top-5 selection (the shipped configuration), every feature
/// unselected (an overfitting check), and the three MPI-specific features
/// alone, the hardware-blind baseline a static tuning table amounts to.
pub(crate) fn ablation_features(ctx: &Context) -> Result<Report, PmlError> {
    let unselected = TrainConfig {
        top_k_features: None,
        ..TrainConfig::default()
    };
    let mut report = Report::default();
    let mut rows = Vec::new();
    for coll in Collective::PAPER {
        let (train, test) = unseen_clusters(ctx, coll)?;
        let models = [
            (
                "top5",
                PretrainedModel::train(&train, coll, &TrainConfig::default())?,
            ),
            ("all", PretrainedModel::train(&train, coll, &unselected)?),
            (
                "mpi_only",
                PretrainedModel::train_restricted(&train, coll, &unselected, &MPI_FEATURES)?,
            ),
        ];
        let mut row = vec![coll.to_string()];
        for (variant, model) in models {
            let (acc, slow) = (score(&model, &test, coll)?, slowdown(&model, &test));
            report.finding(format!("{variant}.acc_pct.{coll}"), acc * 100.0);
            report.finding(format!("{variant}.slowdown_x.{coll}"), slow);
            row.push(format!("{} / {slow:.2}x", percent(acc)));
        }
        rows.push(row);
    }
    let n = FEATURE_NAMES.len();
    report.table(
        "Ablation — unseen clusters: accuracy / geomean slowdown vs oracle",
        &format!("collective | top-5 of {n} | all {n} | MPI-only (3)"),
        rows,
    );
    report.line("\nAccuracy scores exact-argmin hits; the slowdown column is what an");
    report.line("application pays. Hardware features must not cost runtime on unseen");
    report.line("clusters, and should buy some — that is the paper's claim in the");
    report.line("currency it is evaluated in.");
    Ok(report)
}

/// Ablation: forest size and depth against unseen-cluster accuracy,
/// training time and per-inference latency (both wall-clock).
pub(crate) fn ablation_forest_size(ctx: &Context) -> Result<Report, PmlError> {
    let coll = Collective::Alltoall;
    let (train, test) = unseen_clusters(ctx, coll)?;
    let node = &cluster("Frontera")?.spec.node;
    let mut report = Report::default();
    let mut rows = Vec::new();
    for (trees, max_depth) in [
        (5, None),
        (20, None),
        (100, None),
        (300, None),
        (100, Some(8)),
    ] {
        let forest = ForestParams {
            n_estimators: trees,
            max_depth,
            seed: 42,
            ..Default::default()
        };
        let cfg = TrainConfig {
            forest,
            top_k_features: Some(5),
        };
        let t0 = Instant::now();
        let model = PretrainedModel::train(&train, coll, &cfg)?;
        let train_s = t0.elapsed().as_secs_f64();
        let acc = score(&model, &test, coll)?;
        // Amortized single-inference latency (the constant-time claim).
        let t1 = Instant::now();
        let reps = 2000;
        for i in 0..reps {
            std::hint::black_box(model.predict(node, JobConfig::new(16, 56, 1 << (i % 21))));
        }
        let infer_us = t1.elapsed().as_secs_f64() / reps as f64 * 1e6;
        let depth = max_depth.map_or("unlimited".into(), |d| d.to_string());
        let key = format!("trees{trees}_depth_{depth}");
        report.finding(format!("acc_pct.{key}"), acc * 100.0);
        report.timing(format!("train_s.{key}"), train_s);
        report.timing(format!("infer_us.{key}"), infer_us);
        rows.push(vec![
            trees.to_string(),
            depth,
            percent(acc),
            format!("{train_s:.2}s"),
            format!("{infer_us:.1}us"),
        ]);
    }
    report.timed_table(
        "Ablation — forest size vs unseen-cluster accuracy (MPI_Alltoall)",
        "trees | max depth | cluster-test accuracy | train time | per-inference",
        rows,
    );
    Ok(report)
}

/// Extension (the paper's future work): the same pipeline on MPI_Bcast and
/// MPI_Allreduce. A small nine-cluster dataset is generated for each, a
/// model is trained with Frontera and MRI held out, and scored on them.
pub(crate) fn ext_collectives(_: &Context) -> Result<Report, PmlError> {
    let trained_on = [
        "RI2",
        "RI",
        "Haswell",
        "Bebop",
        "Rome",
        "Sierra",
        "Frontera RTX",
    ];
    let frontera = cluster("Frontera")?;
    let mut report = Report::default();
    let mut rows = Vec::new();
    for coll in [Collective::Bcast, Collective::Allreduce] {
        let mut records = Vec::new();
        for name in trained_on.iter().chain(&HELD_OUT) {
            let mut entry = cluster(name)?.clone();
            entry.node_grid.truncate(4);
            entry.ppn_grid.truncate(6);
            let cfg = DatagenConfig::default();
            records.extend(pml_clusters::generate_cluster(&entry, coll, &cfg)?);
        }
        let (train, test) = pml_clusters::cluster_split(&records, &HELD_OUT);
        let model = PretrainedModel::train(&train, coll, &TrainConfig::default())?;
        let acc = score(&model, &test, coll)?;

        // Runtime effect on Frontera at 8x56 against the static default.
        let ml = MlSelector::new(frontera.spec.node.clone(), None, None)?.with_model(model);
        let sels: [&dyn AlgorithmSelector; 2] = [&ml, &MvapichDefault];
        let cmp = compare_selectors(frontera, coll, 8, 56, &msg_sweep(20), &sels);
        let speedup = geomean_speedup(&cmp, 1);
        report.finding(format!("acc_pct.{coll}"), acc * 100.0);
        report.finding(format!("speedup_pct.{coll}"), pct_points(speedup));
        rows.push(vec![
            coll.to_string(),
            train.len().to_string(),
            percent(acc),
            pct(speedup),
        ]);
    }
    report.table(
        "Extension — pre-training applied to MPI_Bcast / MPI_Allreduce",
        "collective | train records | unseen-cluster accuracy | speedup vs default (Frontera 8x56)",
        rows,
    );
    Ok(report)
}
