//! Observability is write-only: spans, metrics, and events must never
//! feed back into computation. The tuning table an engine produces has to
//! be byte-identical whether tracing is enabled or not (the in-process
//! twin of the `obs-determinism` CI lane), and one train → table flow must
//! leave a well-populated metrics registry behind.

mod common;

use pml_mpi::mlcore::ForestParams;
use pml_mpi::obs;
use pml_mpi::{by_name, Collective, DatagenConfig, EngineConfig, SelectionEngine, TrainConfig};
use std::sync::{Arc, Mutex, PoisonError};

/// The global tracer has one record list: tests that drain it take turns.
static TRACER: Mutex<()> = Mutex::new(());

fn ri_alltoall_table_json() -> String {
    let mut engine = common::mini_engine();
    engine
        .tuning_table("RI", Collective::Alltoall)
        .expect("tuning table")
        .to_json()
        .expect("table serializes")
}

#[test]
fn artifacts_are_byte_identical_with_observability_on_or_off() {
    let _turn = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    // First run: the global tracer starts disabled — every span is inert.
    let bare = ri_alltoall_table_json();
    // Second run: tracing on over a deterministic clock.
    obs::tracer().enable(Arc::new(obs::FakeClock::with_step(1)));
    let traced = ri_alltoall_table_json();
    assert_eq!(
        bare, traced,
        "enabling tracing must not perturb the tuning-table artifact"
    );
    // The traced run actually produced the pipeline's stage spans. (Other
    // tests in this binary may record spans concurrently once the global
    // tracer is on; assert containment, not exact shape.)
    let forest = obs::tracer().finish();
    let agg = forest.aggregate();
    for stage in ["datagen", "train", "table"] {
        assert!(
            agg.contains_key(stage),
            "span tree missing stage {stage:?}; got {:?}",
            agg.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn one_train_table_flow_populates_at_least_ten_metrics() {
    // Takes turns with the tests that read counter deltas.
    let _turn = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut engine = common::mini_engine();
    engine.train(Collective::Alltoall).expect("train");
    engine
        .tuning_table("RI", Collective::Alltoall)
        .expect("tuning table");
    let snap = obs::metrics::snapshot();
    let names: Vec<&String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .collect();
    assert!(
        names.len() >= 10,
        "expected >= 10 distinct metrics, got {}: {names:?}",
        names.len()
    );
    for expected in [
        "engine.table.miss",
        "table.cells",
        "table.generated",
        "train.trees",
    ] {
        assert!(
            snap.counters.contains_key(expected),
            "missing counter {expected:?}: {names:?}"
        );
    }
    assert!(snap.gauges.contains_key("train.model.features"));
    assert!(snap.histograms.contains_key("train.tree.nodes"));
}

#[test]
fn cold_extraction_shows_under_table_generate_and_a_warm_run_has_none() {
    // A model that reads all 17 features, so the analytic triple — and
    // with it schedcost — is on the table path; and a cluster whose one
    // layout (5×7) nothing else in this binary ever costs, so the first
    // table pays for the extraction and the second finds it cached.
    let mut cluster = by_name("RI").expect("zoo cluster").clone();
    cluster.node_grid = vec![1, 2];
    cluster.ppn_grid = vec![2];
    cluster.msg_grid = vec![16, 65536];
    let cfg = EngineConfig {
        datagen: DatagenConfig::noiseless(),
        train: TrainConfig {
            forest: ForestParams {
                n_estimators: 5,
                seed: 3,
                ..Default::default()
            },
            top_k_features: None,
        },
        cache_dir: None,
    };
    let mut engine = SelectionEngine::with_clusters(vec![cluster.clone()], cfg);
    let model = engine.train(Collective::Alltoall).expect("train");
    cluster.spec.name = "obs-cold-5x7".to_string();
    cluster.node_grid = vec![5];
    cluster.ppn_grid = vec![7];

    let _turn = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    obs::tracer().enable(Arc::new(obs::FakeClock::with_step(1)));
    let misses = || {
        let counters = obs::metrics::snapshot().counters;
        counters
            .get("schedcost.cache.poly_misses")
            .copied()
            .unwrap_or(0)
    };
    // Extraction spans below this run's own `table.generate` (other tests
    // may be tracing their tables at the same time).
    let extractions = |forest: &obs::SpanForest| -> Vec<String> {
        fn walk(n: &obs::SpanNode, inside: bool, out: &mut Vec<String>) {
            let mine = n.record.name == "table.generate"
                && n.record.fields.iter().any(|(_, v)| v == "obs-cold-5x7");
            if inside && n.record.name == "schedcost.extract" {
                out.push(format!("{:?}", n.record.fields));
            }
            for c in &n.children {
                walk(c, inside || mine, out);
            }
        }
        let mut out = Vec::new();
        forest.roots.iter().for_each(|r| walk(r, false, &mut out));
        out
    };

    let before = misses();
    let cold_table = model.generate_tuning_table(&cluster).expect("cold table");
    let cold = extractions(&obs::tracer().finish());
    let applicable = pml_mpi::Algorithm::applicable_for(Collective::Alltoall, 35).len();
    assert_eq!(
        cold.len(),
        applicable,
        "one span per extracted algorithm: {cold:?}"
    );
    assert!(
        cold.iter().all(|f| f.contains("35")),
        "world field: {cold:?}"
    );
    assert!(
        cold.iter().any(|f| f.contains("pairwise")),
        "algo field: {cold:?}"
    );
    assert!(misses() >= before + applicable as u64);

    let warm_table = model.generate_tuning_table(&cluster).expect("warm table");
    let warm = extractions(&obs::tracer().finish());
    assert!(warm.is_empty(), "warm run extracted again: {warm:?}");
    assert_eq!(cold_table, warm_table);
}

/// The cost formulas' saving as exact counts, which no host noise moves:
/// training and tabling allgather and alltoall on layouts nothing else in
/// this binary prices misses the polynomial cache exactly as often as when
/// every miss was extracted (the counts below were read on that build),
/// and extracts nothing. On the zoo's dataset, `pml-mpi table RI allgather`
/// and `table RI alltoall` with `--metrics-out` read 417 and 547 misses and
/// no `schedcost.polys`, against 417 and 547 of each before.
#[test]
fn tables_price_every_polynomial_without_extracting() {
    let _turn = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    let counter = |name: &str| {
        let counters = obs::metrics::snapshot().counters;
        counters.get(name).copied().unwrap_or(0)
    };
    for (collective, misses) in [(Collective::Allgather, 10), (Collective::Alltoall, 16)] {
        let mut cluster = by_name("RI").expect("zoo cluster").clone();
        cluster.node_grid = vec![3, 6];
        cluster.ppn_grid = vec![3, 5];
        cluster.msg_grid = vec![16, 65536];
        let cfg = EngineConfig {
            datagen: DatagenConfig::noiseless(),
            train: TrainConfig {
                forest: ForestParams {
                    n_estimators: 5,
                    seed: 3,
                    ..Default::default()
                },
                top_k_features: None,
            },
            cache_dir: None,
        };
        let before = [
            counter("schedcost.cache.poly_misses"),
            counter("schedcost.polys"),
        ];
        let mut engine = SelectionEngine::with_clusters(vec![cluster], cfg);
        engine.tuning_table("RI", collective).expect("tuning table");
        let after = [
            counter("schedcost.cache.poly_misses"),
            counter("schedcost.polys"),
        ];
        assert_eq!(
            [after[0] - before[0], after[1] - before[1]],
            [misses, 0],
            "{collective}: polynomial-cache misses and extractions"
        );
    }
}
