//! Figs. 8–12 and the §VII-C summary. Every one of them compares the
//! proposed selector with other selectors over a message-size sweep, so
//! each is a few rows of one table — which cluster, which job shapes, how
//! far the sweep goes, what to compare with — run by one function.

use crate::{
    cluster, compare_selectors, geomean_speedup, msg_sweep, pct, pct_points, us, ComparisonRow,
    Context, Report,
};
use pml_collectives::Collective;
use pml_core::{
    AlgorithmSelector, MlSelector, MvapichDefault, OpenMpiDefault, OracleSelector, PmlError,
    PretrainedModel, RandomSelector, TrainConfig,
};

#[derive(Debug, Clone, Copy)]
enum Baseline {
    Random(u64),
    Mvapich,
    OpenMpi,
    /// §VII-C: the MVAPICH default, random selection, the exhaustive oracle.
    All,
}

#[derive(Debug)]
struct Versus {
    /// The figure this row belongs to; [`SUMMARY`] for §VII-C.
    fig: u8,
    cluster: &'static str,
    /// (nodes, ppn) of each job shape.
    shapes: &'static [(u32, u32)],
    /// The sweep runs 1 B ..= 2^max_log2 B (MRI's grid tops out at 32 KiB).
    max_log2: u32,
    baseline: Baseline,
    /// Fig. 12 only: train on records of at most this many nodes instead of
    /// holding Frontera and MRI out.
    train_max_nodes: Option<u32>,
}

const SUMMARY: u8 = 0;

#[rustfmt::skip]
const ROWS: [Versus; 8] = [
    Versus { fig: 8, cluster: "Frontera", shapes: &[(16, 56)], max_log2: 20, baseline: Baseline::Random(2024), train_max_nodes: None },
    Versus { fig: 9, cluster: "Frontera", shapes: &[(16, 56), (16, 28)], max_log2: 20, baseline: Baseline::Mvapich, train_max_nodes: None },
    Versus { fig: 10, cluster: "MRI", shapes: &[(8, 128), (8, 64)], max_log2: 15, baseline: Baseline::Mvapich, train_max_nodes: None },
    Versus { fig: 11, cluster: "Frontera", shapes: &[(16, 56)], max_log2: 20, baseline: Baseline::OpenMpi, train_max_nodes: None },
    Versus { fig: 12, cluster: "MRI", shapes: &[(8, 128)], max_log2: 15, baseline: Baseline::Mvapich, train_max_nodes: Some(4) },
    Versus { fig: 12, cluster: "Frontera", shapes: &[(16, 56)], max_log2: 20, baseline: Baseline::Mvapich, train_max_nodes: Some(8) },
    Versus { fig: SUMMARY, cluster: "Frontera", shapes: &[(16, 56), (16, 28), (8, 56), (4, 56)], max_log2: 20, baseline: Baseline::All, train_max_nodes: None },
    Versus { fig: SUMMARY, cluster: "MRI", shapes: &[(8, 128), (8, 64), (4, 128), (2, 64)], max_log2: 15, baseline: Baseline::All, train_max_nodes: None },
];

/// One sweep of one row: ((nodes, ppn), collective, per-size outcomes), the
/// proposed selector being outcome 0 and the row's baselines outcomes 1….
type Sweep = ((u32, u32), Collective, Vec<ComparisonRow>);

/// Every sweep of one row, shape by shape, both collectives per shape.
fn sweeps(ctx: &Context, row: &Versus) -> Result<Vec<Sweep>, PmlError> {
    let entry = cluster(row.cluster)?;
    let proposed = match row.train_max_nodes {
        None => ctx.proposed(entry)?,
        Some(max_nodes) => {
            let model = |coll| {
                let (train, _) = pml_clusters::node_split(ctx.engine.dataset(coll)?, max_nodes);
                PretrainedModel::train(&train, coll, &TrainConfig::default()).map(Some)
            };
            let (allgather, alltoall) = (Collective::Allgather, Collective::Alltoall);
            MlSelector::new(entry.spec.node.clone(), model(allgather)?, model(alltoall)?)?
        }
    };
    let baselines: Vec<Box<dyn AlgorithmSelector>> = match row.baseline {
        Baseline::Random(seed) => vec![Box::new(RandomSelector::new(seed))],
        Baseline::Mvapich => vec![Box::new(MvapichDefault)],
        Baseline::OpenMpi => vec![Box::new(OpenMpiDefault)],
        Baseline::All => {
            let mut measured = Vec::new();
            for coll in Collective::PAPER {
                let all = ctx.engine.dataset(coll)?.iter();
                measured.extend(all.filter(|r| r.cluster == row.cluster).cloned());
            }
            let oracle = OracleSelector::from_records(row.cluster, &measured);
            let random = RandomSelector::new(7);
            vec![Box::new(MvapichDefault), Box::new(random), Box::new(oracle)]
        }
    };
    let mut selectors: Vec<&dyn AlgorithmSelector> = vec![&proposed];
    selectors.extend(baselines.iter().map(|b| &**b));
    let sizes = msg_sweep(row.max_log2);
    let mut out = Vec::new();
    for &(nodes, ppn) in row.shapes {
        for coll in Collective::PAPER {
            let points = compare_selectors(entry, coll, nodes, ppn, &sizes, &selectors);
            out.push(((nodes, ppn), coll, points));
        }
    }
    Ok(out)
}

/// Figs. 8–12: one per-size table and its geomean for every sweep.
pub(crate) fn figure(ctx: &Context, fig: u8) -> Result<Report, PmlError> {
    let mut report = Report::default();
    for row in ROWS.iter().filter(|r| r.fig == fig) {
        let vs_random = matches!(row.baseline, Baseline::Random(_));
        let (against, [ours, theirs, last]) = match row.baseline {
            Baseline::Random(_) => (
                "random",
                ["proposed algo", "random algo", "random/proposed"],
            ),
            Baseline::OpenMpi => ("Open MPI default", ["proposed", "openmpi", "speedup"]),
            Baseline::Mvapich | Baseline::All => {
                ("MVAPICH default", ["proposed", "mvapich", "speedup"])
            }
        };
        for ((nodes, ppn), coll, points) in sweeps(ctx, row)? {
            let ratio = |p: &ComparisonRow| p.outcomes[1].2 / p.outcomes[0].2;
            let cells = |p: &ComparisonRow| {
                let ((_, ours, t0), (_, theirs, t1)) = (&p.outcomes[0], &p.outcomes[1]);
                let last = if vs_random {
                    format!("{:.2}x", t1 / t0)
                } else {
                    pct(t1 / t0)
                };
                let size = p.msg_size.to_string();
                vec![size, ours.clone(), us(*t0), theirs.clone(), us(*t1), last]
            };
            let shape = format!("{} {nodes}x{ppn}", row.cluster);
            let title = match row.train_max_nodes {
                None => format!("Fig. {fig} — {coll}, {shape}: proposed vs {against}"),
                Some(max) => {
                    format!("Fig. {fig} — {coll}, {shape} (trained on nodes<={max}) vs {against}")
                }
            };
            report.table(
                &title,
                &format!("msg(B) | {ours} | us | {theirs} | us | {last}"),
                points.iter().map(cells).collect(),
            );

            let geomean = geomean_speedup(&points, 1);
            let key = format!("{}.{coll}.{nodes}x{ppn}", row.cluster);
            if vs_random {
                report.line(format!("geomean slowdown of random: {geomean:.2}x"));
                report.finding(format!("geomean_x.{key}"), geomean);
                let slowdowns = points.iter().map(|p| (p.msg_size, ratio(p)));
                if let Some((size, worst)) = slowdowns.max_by(|a, b| a.1.total_cmp(&b.1)) {
                    report.line(format!(
                        "max slowdown of random: {worst:.2}x at {size} B (paper: up to 15.5x/8.3x)"
                    ));
                    report.finding(format!("max_x.{key}"), worst);
                }
                continue;
            }
            let over = match row.baseline {
                Baseline::OpenMpi => "Open MPI",
                _ => "default",
            };
            report.line(format!("geomean speedup over {over}: {}", pct(geomean)));
            report.finding(format!("geomean_pct.{key}"), pct_points(geomean));
            if matches!(row.baseline, Baseline::OpenMpi) {
                let large = points.iter().filter(|p| p.msg_size >= 4096);
                let large: Vec<String> = large
                    .map(|p| format!("{}B:{}", p.msg_size, pct(ratio(p))))
                    .collect();
                report.line(format!(
                    ">=4 KiB speedups: {} (paper: 36-58% wins beyond 4k)",
                    large.join(" ")
                ));
            }
        }
    }
    Ok(report)
}

/// §VII-C: over every evaluation shape of Frontera and MRI, the proposed
/// selector's geomean speedup over the MVAPICH default and over random
/// selection, and its slowdown against the exhaustive oracle.
pub(crate) fn summary(ctx: &Context) -> Result<Report, PmlError> {
    let mut report = Report::default();
    let mut rows = Vec::new();
    for row in ROWS.iter().filter(|r| r.fig == SUMMARY) {
        let sweeps = sweeps(ctx, row)?;
        for coll in Collective::PAPER {
            let of_coll = sweeps.iter().filter(|s| s.1 == coll);
            let points: Vec<ComparisonRow> = of_coll.flat_map(|s| s.2.iter().cloned()).collect();
            let [vs_default, vs_random, vs_oracle] = [1, 2, 3].map(|i| geomean_speedup(&points, i));
            rows.push(vec![
                row.cluster.to_string(),
                coll.to_string(),
                pct(vs_default),
                format!("{vs_random:.2}x"),
                pct(vs_oracle),
            ]);
            let key = format!("{}.{coll}", row.cluster);
            report.finding(format!("vs_default_pct.{key}"), pct_points(vs_default));
            report.finding(format!("vs_random_x.{key}"), vs_random);
            report.finding(format!("vs_oracle_pct.{key}"), pct_points(vs_oracle));
        }
    }
    report.table(
        "§VII-C — average speedup of the proposed selector",
        "cluster | collective | vs MVAPICH default | vs random | vs oracle (neg = slowdown)",
        rows,
    );
    report
        .line("\n(paper: MRI avg +6.3% allgather / +2.5% alltoall over default; 2.96x/2.76x over");
    report.line(" random; slowdown vs exhaustive micro-benchmark bounded by ~6%)");
    Ok(report)
}
