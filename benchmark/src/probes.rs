//! The per-layer ledger of the traced run.
//!
//! A traced workload reports the rows its own ops exercise (read from the
//! spans around them) plus the standalone probes of the layers on its path,
//! run here after the timed section at fixed sizes; the rows of layers it
//! never calls stay at zero. Every probe times the benchmark's side of a
//! public call; nothing inside the library is instrumented.

use crate::fixture::{Pass, Res};
use crate::serve::{Artifacts, Serve, ServePath, Traffic};
use crate::stats::median;
use crate::trace::{Mode, Phase, Recorder, Span};
use crate::workload::Workload;
use pml_mpi::clusters::{measure_cell, ClusterEntry, DatagenConfig};
use pml_mpi::collectives::exec::sim;
use pml_mpi::collectives::{check_algorithm, measure_sweep, schedcost, CommSchedule};
use pml_mpi::core::features::select_features;
use pml_mpi::core::{extract_batch, records_to_dataset, JobConfig, PretrainedModel, Tuner};
use pml_mpi::mlcore::{BinnedMatrix, Classifier, Matrix, RandomForest};
use pml_mpi::obs::{Clock, Histogram, MonotonicClock, Tracer, WindowedHistogram};
use pml_mpi::serve::protocol::{parse_request, render_predict, render_select};
use pml_mpi::serve::{BatchConfig, Batcher, ObsConfig};
use pml_mpi::simnet::{CostModel, JobLayout};
use pml_mpi::{Algorithm, Collective, TrainConfig, TuningRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub type Ledger = BTreeMap<&'static str, f64>;

/// The two probe daemons take this many turns of this many seconds each.
const DAEMON_PROBE_TURNS: usize = 3;
const DAEMON_PROBE_S: f64 = 0.4;

/// Median over `reps` timings of `f`, in nanoseconds per item.
fn per_item_ns(reps: usize, items: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// Every allgather and alltoall algorithm applicable at `world`.
fn paper_algorithms(world: u32) -> Vec<Algorithm> {
    Collective::PAPER
        .iter()
        .flat_map(|&c| Algorithm::applicable_for(c, world))
        .collect()
}

fn schedules(world: u32) -> Res<Vec<CommSchedule>> {
    paper_algorithms(world)
        .into_iter()
        .map(|a| Ok(a.schedule(world, 1)?))
        .collect()
}

/// The two job sizes the schedule probes run at.
const W64: (u32, u32) = (4, 16);
const W256: (u32, u32) = (16, 16);

fn layout((nodes, ppn): (u32, u32)) -> JobLayout {
    JobLayout::new(nodes, ppn)
}

/// The offline stage's layers, for `pretrain`: `simnet` and `collectives`
/// (schedules generated, simulated and swept), one measured cell, `mlcore` on the pass's own dataset, and `pml-obs`.
pub fn offline(ledger: &mut Ledger, entry: &ClusterEntry, pass: &Pass) -> Res<()> {
    let node = &entry.spec.node;
    let cost = CostModel::new(node.clone(), W64.1);
    ledger.insert(
        "simnet.msg_cost_ns",
        per_item_ns(5, 200_000, || {
            for i in 0..200_000usize {
                let bytes = black_box(4096 + (i & 1));
                black_box(
                    cost.net_alpha_s(bytes)
                        + cost.net_serialize_s(bytes)
                        + cost.intra_node_msg_s(bytes),
                );
            }
        }),
    );
    ledger.insert(
        "collectives.schedule_gen_us.w64",
        per_item_ns(5, 1, || {
            black_box(schedules(64).map(|s| s.len()).unwrap_or(0));
        }) / 1e3,
    );
    for (shape, name) in [
        (W64, "collectives.sim_exec_us.w64"),
        (W256, "collectives.sim_exec_us.w256"),
    ] {
        let built = schedules(shape.0 * shape.1)?;
        ledger.insert(
            name,
            per_item_ns(3, 1, || {
                for s in &built {
                    black_box(sim::run(s, layout(shape), &cost).time_s);
                }
            }) / 1e3,
        );
    }
    ledger.insert(
        "collectives.measure_sweep_ms.w64",
        per_item_ns(5, 1, || {
            for c in Collective::PAPER {
                black_box(measure_sweep(c, node, layout(W64), &entry.msg_grid).len());
            }
        }) / 1e6,
    );
    ledger.insert(
        "clusters.measure_cell_us.w64",
        per_item_ns(9, 1, || {
            black_box(
                measure_cell(
                    entry,
                    Collective::Alltoall,
                    W64.0,
                    W64.1,
                    4096,
                    &DatagenConfig::noiseless(),
                )
                .is_ok(),
            );
        }) / 1e3,
    );
    mlcore(ledger, &pass.records, &pass.models[0])?;
    obs(ledger);
    Ok(())
}

/// `mlcore` on one pass's dataset, projected onto the model's five
/// features: binning, a 100-tree fit, compilation, inference at 1, 64 and
/// 630 rows, and the exact f64 twin at 630.
fn mlcore(ledger: &mut Ledger, records: &[TuningRecord], model: &PretrainedModel) -> Res<()> {
    let collective = model.collective;
    ledger.insert(
        "core.records_to_dataset_ms",
        per_item_ns(3, 1, || {
            black_box(
                records_to_dataset(records, collective)
                    .map(|d| d.len())
                    .unwrap_or(0),
            );
        }) / 1e6,
    );
    let full = records_to_dataset(records, collective)?;
    let data = select_features(&full, model.selected_features());
    ledger.insert(
        "mlcore.bin_ms",
        per_item_ns(5, 1, || {
            black_box(BinnedMatrix::from_matrix(&data.x, 256).rows());
        }) / 1e6,
    );
    let params = TrainConfig::default().forest;
    let mut forest = RandomForest::new(params);
    let mut fit_error = None;
    ledger.insert(
        "mlcore.fit_ms",
        per_item_ns(3, 1, || {
            forest = RandomForest::new(params);
            fit_error = forest.fit(&data.x, &data.y, data.n_classes).err();
        }) / 1e6,
    );
    if let Some(e) = fit_error {
        return Err(e.into());
    }
    ledger.insert(
        "mlcore.compile_ms",
        per_item_ns(5, 1, || {
            black_box(forest.compile().is_ok());
        }) / 1e6,
    );
    let rows = |n: usize| {
        let idx: Vec<usize> = (0..n).map(|i| i * 7 % data.x.rows()).collect();
        data.x.select_rows(&idx)
    };
    for (name, n, reps) in [
        ("mlcore.predict_us.r1", 1, 2000),
        ("mlcore.predict_us.r64", 64, 200),
        ("mlcore.predict_us.r630", 630, 50),
    ] {
        let x: Matrix = rows(n);
        forest.predict_batch(&x);
        ledger.insert(
            name,
            per_item_ns(5, reps, || {
                for _ in 0..reps {
                    black_box(forest.predict_batch(black_box(&x)).len());
                }
            }) / 1e3,
        );
    }
    let x = rows(630);
    ledger.insert(
        "mlcore.predict_exact_us.r630",
        per_item_ns(5, 5, || {
            for _ in 0..5 {
                black_box(forest.predict_batch_exact(black_box(&x)).len());
            }
        }) / 1e3,
    );
    Ok(())
}

static PROBE_HISTOGRAM: Histogram =
    Histogram::new("bench.probe.histogram", &pml_mpi::obs::LATENCY_NS_BOUNDS);
static PROBE_WINDOW: WindowedHistogram = WindowedHistogram::new(
    "bench.probe.window",
    &pml_mpi::obs::LATENCY_NS_BOUNDS,
    1_000_000_000,
);

/// `pml-obs`: what a span costs on and off, what an observation costs, and
/// what exporting the registry costs. Local tracers, so the global one —
/// and with it every span inside the library — stays off.
fn obs(ledger: &mut Ledger) {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    for (name, tracer) in [
        (
            "obs.span_ns.enabled",
            Tracer::with_clock(Arc::clone(&clock)),
        ),
        ("obs.span_ns.disabled", Tracer::disabled()),
    ] {
        ledger.insert(
            name,
            per_item_ns(5, 20_000, || {
                for _ in 0..20_000 {
                    black_box(tracer.span("bench.probe").is_enabled());
                }
            }),
        );
    }
    ledger.insert(
        "obs.histogram_observe_ns",
        per_item_ns(5, 200_000, || {
            for i in 0..200_000u64 {
                PROBE_HISTOGRAM.observe(black_box(i << 4));
            }
        }),
    );
    ledger.insert(
        "obs.window_observe_ns",
        per_item_ns(5, 200_000, || {
            for i in 0..200_000u64 {
                PROBE_WINDOW.observe(black_box(i << 4), clock.now_nanos());
            }
        }),
    );
    ledger.insert(
        "obs.export_ms",
        per_item_ns(5, 1, || {
            black_box(pml_mpi::obs::metrics_json(&pml_mpi::obs::metrics::snapshot(), None).len());
        }) / 1e6,
    );
}

/// What `deploy_cold` pays for inside `core::features`, taken apart:
/// generating the 256-rank schedules, extracting their cost polynomials
/// (and the 64-rank ones), fitting a node spec's constants — and the static
/// checker over the 64-rank schedules of all four collectives.
pub fn schedcost(ledger: &mut Ledger, entry: &ClusterEntry) -> Res<()> {
    ledger.insert(
        "collectives.schedule_gen_us.w256",
        per_item_ns(3, 1, || {
            black_box(schedules(256).map(|s| s.len()).unwrap_or(0));
        }) / 1e3,
    );
    for (shape, name) in [
        (W64, "collectives.schedcost_extract_ms.w64"),
        (W256, "collectives.schedcost_extract_ms.w256"),
    ] {
        let built = schedules(shape.0 * shape.1)?;
        ledger.insert(
            name,
            per_item_ns(3, 1, || {
                for s in &built {
                    black_box(schedcost::extract_poly(s, layout(shape)).is_ok());
                }
            }) / 1e6,
        );
    }
    ledger.insert(
        "collectives.fit_params_ms",
        per_item_ns(9, 1, || {
            black_box(schedcost::fit_params(&entry.spec.node, W64.1));
        }) / 1e6,
    );
    // The static checker walks the same matched step graph as extraction.
    let every: Vec<Algorithm> = Collective::ALL
        .iter()
        .flat_map(|&c| Algorithm::applicable_for(c, 64))
        .collect();
    ledger.insert(
        "collectives.schedcheck_ms.w64",
        per_item_ns(3, 1, || {
            for &a in &every {
                black_box(check_algorithm(a, 64, 64).is_ok());
            }
        }) / 1e6,
    );
    Ok(())
}

/// On a cluster nobody has seen: feature extraction over its big layout,
/// cold, then table generation, which that extraction has made warm.
pub fn cold_features(rec: &Recorder, entry: &ClusterEntry, models: &[PretrainedModel]) -> Res<()> {
    let (nodes, ppn) = crate::deploy::big_layout(entry);
    let jobs: Vec<JobConfig> = entry
        .msg_grid
        .iter()
        .map(|&m| JobConfig::new(nodes, ppn, m))
        .collect();
    rec.time("core.features.cold", || {
        for c in Collective::PAPER {
            black_box(extract_batch(&entry.spec.node, c, &jobs).rows());
        }
    });
    rec.time("core.table_gen.warm", || {
        models
            .iter()
            .map(|m| m.generate_tuning_table(entry).map(|t| t.len()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(())
}

/// The protocol's pure functions and the tuner's hit path, for
/// `serve_select`.
pub fn select_units(ledger: &mut Ledger, art: &Artifacts) -> Res<()> {
    let frame = "{\"v\":\"pml-serve/v1\",\"id\":123456,\"op\":\"select\",\
                 \"collective\":\"alltoall\",\"nodes\":4,\"ppn\":16,\"msg_size\":65536}";
    parse_request(frame).map_err(|(_, e)| e.message)?;
    ledger.insert(
        "serve.parse_request_ns",
        per_item_ns(5, 20_000, || {
            for _ in 0..20_000 {
                black_box(parse_request(black_box(frame)).is_ok());
            }
        }),
    );
    let algo = Algorithm::applicable_for(Collective::Alltoall, 64)[0];
    ledger.insert(
        "serve.render_select_ns",
        per_item_ns(5, 20_000, || {
            for i in 0..20_000u64 {
                black_box(render_select(Some(i), algo, pml_mpi::FallbackDepth::Exact).len());
            }
        }),
    );
    ledger.insert(
        "serve.render_predict_ns",
        per_item_ns(5, 20_000, || {
            for i in 0..20_000u64 {
                black_box(render_predict(Some(i), algo).len());
            }
        }),
    );
    let tuner: Tuner = art.tuner();
    let e = &art.entry;
    let jobs: Vec<(Collective, JobConfig)> = Collective::PAPER
        .iter()
        .flat_map(|&c| {
            e.node_grid.iter().flat_map(move |&n| {
                e.msg_grid
                    .iter()
                    .map(move |&m| (c, JobConfig::new(n, e.ppn_grid[0], m)))
            })
        })
        .collect();
    for &(c, job) in &jobs {
        tuner.select(c, job);
    }
    ledger.insert(
        "core.tuner_select_hit_ns",
        per_item_ns(5, 100 * jobs.len() as u64, || {
            for _ in 0..100 {
                for &(c, job) in &jobs {
                    black_box(tuner.select(c, black_box(job)));
                }
            }
        }),
    );
    Ok(())
}

/// What a `predict` request costs past the protocol, for `serve_predict`:
/// the batcher one request at a time, warm feature extraction, and the
/// static ranking behind the analytic features.
pub fn predict_units(ledger: &mut Ledger, art: &Artifacts) -> Res<()> {
    let node = &art.entry.spec.node;
    let model = Arc::clone(&art.models[0]);
    let collective = model.collective;
    let batcher = Batcher::new(
        BTreeMap::from([(collective, model)]),
        BatchConfig::default(),
        None,
    );
    let job = JobConfig::new(W64.0, W64.1, 4096);
    batcher
        .submit(art.entry.name(), collective, job)
        .map_err(|e| e.message)?;
    ledger.insert(
        "serve.batcher_submit_us",
        per_item_ns(5, 100, || {
            for _ in 0..100 {
                black_box(batcher.submit(art.entry.name(), collective, job).is_ok());
            }
        }) / 1e3,
    );
    let warm_jobs: Vec<JobConfig> = (0..630)
        .map(|i| JobConfig::new(1 << (i % 3), 16, 1 << (i % 21)))
        .collect();
    extract_batch(node, Collective::Alltoall, &warm_jobs);
    ledger.insert(
        "core.features_ns_per_row.warm",
        per_item_ns(5, 630, || {
            black_box(extract_batch(node, Collective::Alltoall, &warm_jobs).rows());
        }),
    );
    schedcost::rank_static(Collective::Alltoall, node, layout(W64), 4096);
    ledger.insert(
        "collectives.rank_static_hot_ns",
        per_item_ns(5, 20_000, || {
            for i in 0..20_000usize {
                let msg = black_box(4096 << (i & 3));
                black_box(
                    schedcost::rank_static(Collective::Alltoall, node, layout(W64), msg).len(),
                );
            }
        }),
    );
    Ok(())
}

/// The select bursts once more against two fresh daemons that take turns:
/// one with the default `ObsConfig`, one that neither traces requests nor
/// samples quality. The quiet one's throughput is the row; the note sets
/// the default one's beside it, because only those two compare — where the
/// scheduler puts a second daemon's connection thread moves a burst by more
/// than request observability does, so neither compares with the workload.
pub fn trace_off(
    rec: &Recorder,
    ledger: &mut Ledger,
    art: Arc<Artifacts>,
    socket: PathBuf,
) -> Res<String> {
    let quiet = ObsConfig {
        trace_requests: false,
        quality_sample: 0,
        ..ObsConfig::default()
    };
    let mut daemons = Vec::new();
    for (name, obs) in [
        ("default.sock", ObsConfig::default()),
        ("quiet.sock", quiet),
    ] {
        let traffic = Traffic::build(rec, &art, ServePath::Select, false)?;
        let socket = socket.with_file_name(name);
        daemons.push(Serve::setup(Arc::clone(&art), traffic, socket, obs, 0)?);
    }
    let mut per_s = [Vec::new(), Vec::new()];
    rec.set_mode(Mode::Off);
    for _turn in 0..DAEMON_PROBE_TURNS {
        for (probe, per_s) in daemons.iter_mut().zip(&mut per_s) {
            let out = probe.run(rec, DAEMON_PROBE_S)?;
            per_s.push(crate::stats::window_median_throughput(
                &out.done_at_s,
                out.wall_s,
                5,
            ));
        }
    }
    rec.set_mode(Mode::On);
    for probe in daemons {
        probe.daemon.shutdown()?;
    }
    let (default, quiet) = (median(&per_s[0]), median(&per_s[1]));
    ledger.insert("serve.trace_off_ops_per_s", quiet);
    Ok(format!(
        "probe daemons, taking turns: default ObsConfig {default:.1} bursts/s, \
         tracing and quality sampling off {quiet:.1} bursts/s"
    ))
}

/// How a span name becomes a metric value.
#[derive(Debug, Clone, Copy)]
enum Read {
    /// Median span duration.
    Whole,
    /// Median duration per item the span covered.
    PerItem,
    /// Items per second over the median span.
    ItemsPerS,
    /// All spans added up.
    Sum,
}

/// Metric ← the spans of that name and phase, with the factor from
/// nanoseconds to the metric's unit. A workload whose ops never open the
/// span leaves the metric alone.
const FROM_SPANS: [(&str, &str, Phase, Read, f64); 13] = [
    (
        "clusters.datagen_ms_per_pass",
        "clusters.datagen",
        Phase::Timed,
        Read::Whole,
        1e-6,
    ),
    (
        "clusters.datagen_cells_per_s",
        "clusters.datagen",
        Phase::Timed,
        Read::ItemsPerS,
        1.0,
    ),
    (
        "clusters.oracle_ms",
        "clusters.oracle",
        Phase::Setup,
        Read::Sum,
        1e-6,
    ),
    (
        "core.train_ms",
        "core.train",
        Phase::Timed,
        Read::Whole,
        1e-6,
    ),
    (
        "core.model_to_json_ms",
        "core.model_to_json",
        Phase::Timed,
        Read::Whole,
        1e-6,
    ),
    (
        "core.features_ms.cold",
        "core.features.cold",
        Phase::Probe,
        Read::Whole,
        1e-6,
    ),
    (
        "core.model_from_json_ms",
        "core.model_from_json",
        Phase::Timed,
        Read::PerItem,
        1e-6,
    ),
    (
        "core.table_gen_ms.cold",
        "core.table_gen.cold",
        Phase::Timed,
        Read::Whole,
        1e-6,
    ),
    (
        "core.table_gen_ms.warm",
        "core.table_gen.warm",
        Phase::Probe,
        Read::Whole,
        1e-6,
    ),
    (
        "core.table_json_ms",
        "core.table_json",
        Phase::Timed,
        Read::Whole,
        1e-6,
    ),
    (
        "core.tuner_load_ms",
        "core.tuner_load",
        Phase::Timed,
        Read::Whole,
        1e-6,
    ),
    (
        "core.tuner_select_miss_ns",
        "core.select_sweep.on_grid",
        Phase::Timed,
        Read::PerItem,
        1.0,
    ),
    (
        "core.tuner_select_fallback_ns",
        "core.select_sweep.off_grid",
        Phase::Timed,
        Read::PerItem,
        1.0,
    ),
];

/// Fill in the metrics that are read off recorded spans.
pub fn from_spans(spans: &[Span], ledger: &mut Ledger) {
    for (metric, span, phase, read, factor) in FROM_SPANS {
        let chosen: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == span && s.phase == phase)
            .collect();
        if chosen.is_empty() {
            continue;
        }
        let whole: Vec<f64> = chosen.iter().map(|s| s.dur_ns() as f64).collect();
        let per_item: Vec<f64> = chosen
            .iter()
            .map(|s| s.dur_ns() as f64 / s.items.max(1) as f64)
            .collect();
        let value = match read {
            Read::Whole => median(&whole) * factor,
            Read::PerItem => median(&per_item) * factor,
            Read::ItemsPerS => 1e9 / median(&per_item),
            Read::Sum => whole.iter().sum::<f64>() * factor,
        };
        ledger.insert(metric, value);
    }
}
