//! Differential harness: static ranking vs virtual-time ranking.
//!
//! For every (collective, world, size) cell of the schedcheck grid the
//! harness ranks the applicable algorithms twice — once analytically
//! (zero execution, [`super::rank_static`]) and once by simulating each
//! schedule — and scores agreement two ways:
//!
//! * **top-1**: the static pick's simulated time is within a small
//!   tolerance of the simulated best (near-ties between algorithms are
//!   real and either pick is fine);
//! * **Spearman** rank correlation between the two orderings (average
//!   ranks for ties), so "got the whole ordering right" is visible
//!   separately from "got the winner right".
//!
//! `pml-mpi verify --costs` runs this over the full grid and CI holds
//! the per-collective top-1 rate above its threshold.

use super::analytic::{poly_for, rank_static};
use crate::algo::{Algorithm, Collective};
use crate::exec::sim;
use crate::measure::measure_sweep;
use crate::schedcheck::GridTally;
use pml_simnet::{CostModel, JobLayout, NodeSpec};
use std::collections::BTreeMap;

/// Simulated time of the static pick may exceed the simulated best by
/// this factor and still count as agreement (near-tie tolerance).
pub const TOP1_TOLERANCE: f64 = 0.02;

/// The share of a collective's cells, in percent, whose static pick must
/// agree with the simulated best (`verify --costs` and its CI lane).
pub const TOP1_BAR_PERCENT: usize = 90;

/// One ranked grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffCell {
    pub collective: Collective,
    pub world: u32,
    pub size: usize,
    pub static_best: Algorithm,
    pub sim_best: Algorithm,
    /// Static pick's simulated time over the simulated best, minus 1.
    pub regret: f64,
    pub agree: bool,
    pub spearman: f64,
}

/// The full differential run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub cells: Vec<DiffCell>,
}

impl DiffReport {
    /// (agreeing cells, total cells) for one collective.
    pub fn top1(&self, c: Collective) -> (usize, usize) {
        let of_c: Vec<&DiffCell> = self.cells.iter().filter(|x| x.collective == c).collect();
        (of_c.iter().filter(|x| x.agree).count(), of_c.len())
    }

    /// Whether `c`'s top-1 agreement reaches [`TOP1_BAR_PERCENT`]; a
    /// collective with no cells does.
    pub fn meets_top1_bar(&self, c: Collective) -> bool {
        let (agree, total) = self.top1(c);
        agree * 100 >= total * TOP1_BAR_PERCENT
    }

    /// Mean Spearman rank correlation across all cells.
    pub fn mean_spearman(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        self.cells.iter().map(|c| c.spearman).sum::<f64>() / self.cells.len() as f64
    }
}

/// Average ranks (1-based, ties averaged) of `values`, ascending.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman correlation of two parallel value vectors: Pearson on
/// average ranks. Degenerate vectors (all tied, or fewer than two
/// entries) correlate perfectly by convention.
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < 2 {
        return 1.0;
    }
    let (ra, rb) = (average_ranks(a), average_ranks(b));
    let n = ra.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean).powi(2);
        vb += (y - mean).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return 1.0;
    }
    cov / (va * vb).sqrt()
}

/// The layout every differential cell at world `p` runs on: two ranks
/// per node when the world is even (both traffic classes exercised),
/// one otherwise.
pub fn cell_layout(p: u32) -> JobLayout {
    if p.is_multiple_of(2) {
        JobLayout::new(p / 2, 2)
    } else {
        JobLayout::new(p, 1)
    }
}

/// Derive the cost polynomial of every schedcheck grid cell statically
/// (`pml-mpi verify --costs`' first pass); a cell without one fails.
pub fn derive_grid(max_world: u32, sizes: &[usize]) -> GridTally<()> {
    GridTally::sweep(max_world, sizes, |algo, p, size| {
        poly_for(algo, cell_layout(p), size).map(drop).ok_or(())
    })
}

/// Run the differential over the schedcheck grid (`sweep_grid(max_world,
/// sizes)` cells, grouped by (collective, world, size)) on one node
/// type. The static side never executes a schedule; the simulated side
/// is the comparison oracle.
pub fn differential_report(node: &NodeSpec, max_world: u32, sizes: &[usize]) -> DiffReport {
    let mut report = DiffReport::default();
    for c in Collective::ALL {
        for p in 2..=max_world {
            let layout = cell_layout(p);
            if Algorithm::applicable_for(c, p).len() < 2 {
                continue;
            }
            let sim_sweep = measure_sweep(c, node, layout, sizes);
            for (per_algo, &size) in sim_sweep.iter().zip(sizes) {
                let statics = rank_static(c, node, layout, size);
                // Align the two rankings on the algorithm set.
                let sim_of: BTreeMap<Algorithm, f64> = per_algo.iter().copied().collect();
                let (mut s_costs, mut t_costs) = (Vec::new(), Vec::new());
                for (a, s) in &statics {
                    if let Some(&t) = sim_of.get(a) {
                        s_costs.push(*s);
                        t_costs.push(t);
                    }
                }
                let Some(&(static_best, _)) = statics.first() else {
                    continue;
                };
                let Some(&(sim_best, sim_best_t)) = per_algo
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())))
                else {
                    continue;
                };
                let picked_t = sim_of.get(&static_best).copied().unwrap_or(f64::INFINITY);
                let regret = picked_t / sim_best_t - 1.0;
                report.cells.push(DiffCell {
                    collective: c,
                    world: p,
                    size,
                    static_best,
                    sim_best,
                    regret,
                    agree: regret <= TOP1_TOLERANCE,
                    spearman: spearman(&s_costs, &t_costs),
                });
            }
        }
    }
    report
}

/// The one-shot measurement: price one algorithm at one message size by
/// generating its schedule at that size and simulating it. `None` when the
/// algorithm is not defined at the layout's world size.
pub fn sim_time(algo: Algorithm, node: &NodeSpec, layout: JobLayout, msg: usize) -> Option<f64> {
    if !algo.supports(layout.world_size()) {
        return None;
    }
    let schedule = algo.schedule(layout.world_size(), msg).ok()?;
    let cost = CostModel::new(node.clone(), layout.ppn);
    Some(sim::run(&schedule, layout, &cost).time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sim::tests::test_node;

    #[test]
    fn spearman_of_identical_order_is_one() {
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
    }

    #[test]
    fn average_ranks_handle_ties() {
        assert_eq!(average_ranks(&[5.0, 1.0, 5.0]), vec![2.5, 1.0, 2.5]);
    }

    #[test]
    fn schedcheck_grid_prefix_agrees() {
        // Worlds 2..=8 of the grid `pml-mpi verify --costs` sweeps in
        // full; the CI lane holds the whole grid at ≥90% per collective.
        let node = test_node();
        let report = differential_report(&node, 8, &[16, 21]);
        assert!(!report.cells.is_empty());
        for c in Collective::ALL {
            assert!(
                report.meets_top1_bar(c),
                "{c}: {:?} cells agree",
                report.top1(c)
            );
        }
        assert!(report.mean_spearman() > 0.8, "{}", report.mean_spearman());
    }

    #[test]
    fn eager_sizes_stay_mostly_ranked() {
        // Off the spec grid the model is approximate, but the ranking
        // should not fall apart at eager payloads.
        let node = test_node();
        let report = differential_report(&node, 8, &[1024]);
        for c in Collective::ALL {
            let (agree, total) = report.top1(c);
            assert!(
                total == 0 || agree * 10 >= total * 7,
                "{c}: only {agree}/{total} cells agree"
            );
        }
        assert!(report.mean_spearman() > 0.5, "{}", report.mean_spearman());
    }
}
