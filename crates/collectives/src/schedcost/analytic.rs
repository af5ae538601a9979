//! Analytic algorithm ranking: memoized polynomials × fitted constants.
//!
//! The polynomial for a scale-invariant algorithm is extracted **once**
//! per (algorithm, layout) at unit block and reused across the whole
//! message-size sweep (the same trick `measure_sweep` plays with one
//! `sim::Plan`); the chunked bcast/allreduce variants, whose schedule
//! shape depends on `msg mod p`, are keyed by the actual size — and only
//! the most recent few thousand of those are kept. Ties break by
//! registry index, so rankings are bit-identical run to run — the
//! property the obs-determinism CI lane pins for the selector tier built
//! on top of this.

use super::extract::extract_poly;
use super::fit::cached_params;
use super::{CostParams, CostPoly};
use crate::algo::{Algorithm, Collective};
use pml_obs::{span, Counter};
use pml_simnet::{JobLayout, NodeSpec};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{OnceLock, RwLock};

/// Polynomial-cache hits, and misses (each one a schedule generated and
/// extracted under a `schedcost.extract` span).
static POLY_HITS: Counter = Counter::new("schedcost.cache.poly_hits");
static POLY_MISSES: Counter = Counter::new("schedcost.cache.poly_misses");

type PolyKey = (Collective, usize, u32, u32, usize);

/// How many size-keyed polynomials the cache keeps. Scale-invariant
/// algorithms add one entry per layout and are never evicted; the chunked
/// bcast/allreduce variants add one per distinct message size, which a
/// long-lived daemon answering arbitrary sizes would grow forever.
/// Entries are pure functions of their key, so dropping the oldest only
/// costs a re-extraction.
const SIZE_KEYED_CAP: usize = 4096;

/// Process-wide polynomial cache: (collective, algo index, nodes, ppn,
/// size key) → polynomial. Size key is 0 for scale-invariant algorithms
/// (unit-block polynomial) and the message size otherwise; `size_keyed`
/// lists the latter in insertion order, at most [`SIZE_KEYED_CAP`].
#[derive(Default)]
struct PolyCache {
    polys: BTreeMap<PolyKey, CostPoly>,
    size_keyed: VecDeque<PolyKey>,
}

static POLYS: OnceLock<RwLock<PolyCache>> = OnceLock::new();

/// The largest world a polynomial is extracted at. Extraction builds the
/// whole schedule, so its work and memory grow with the world (an alltoall
/// has `p²` messages); above this bound a shape has no polynomial and so
/// no analytic ranking. The largest zoo world (16 × 68 KNL ranks), so every
/// shape the datasets, experiments and tables price is within it. A cold
/// `rank_static` at 1 088 ranks took 0.8–2.1 s and peaked at 0.3–0.65 GB
/// per collective on a 2-core x86-64 host; at 2 048 ranks, 3.6–13 s and
/// 1.0–2.6 GB (alltoall the largest), too much for one request.
pub const MAX_EXTRACT_WORLD: u32 = 1088;

/// The cost polynomial of `algo` at this layout and message size, from
/// cache when possible. `None` above [`MAX_EXTRACT_WORLD`] ranks, when the
/// algorithm is undefined at the layout's world size, or when its schedule
/// fails extraction (which the schedcheck CI grid rules out for every
/// registered algorithm).
pub fn poly_for(algo: Algorithm, layout: JobLayout, msg: usize) -> Option<CostPoly> {
    let world = u64::from(layout.nodes) * u64::from(layout.ppn);
    let p = u32::try_from(world)
        .ok()
        .filter(|&p| p <= MAX_EXTRACT_WORLD)?;
    if !algo.supports(p) {
        return None;
    }
    let (block, size_key) = if algo.scale_invariant() {
        (1, 0)
    } else {
        (msg.max(1), msg.max(1))
    };
    let key: PolyKey = (
        algo.collective(),
        algo.index(),
        layout.nodes,
        layout.ppn,
        size_key,
    );
    let cache = POLYS.get_or_init(Default::default);
    if let Ok(guard) = cache.read() {
        if let Some(poly) = guard.polys.get(&key) {
            POLY_HITS.inc();
            return Some(*poly);
        }
    }
    POLY_MISSES.inc();
    let _span = span!("schedcost.extract", world = p, algo = algo.name());
    let schedule = algo.schedule(p, block).ok()?;
    let poly = extract_poly(&schedule, layout).ok()?;
    if let Ok(mut guard) = cache.write() {
        if guard.polys.insert(key, poly).is_none() && size_key != 0 {
            if guard.size_keyed.len() == SIZE_KEYED_CAP {
                if let Some(oldest) = guard.size_keyed.pop_front() {
                    guard.polys.remove(&oldest);
                }
            }
            guard.size_keyed.push_back(key);
        }
    }
    Some(poly)
}

/// Predicted runtime of `algo` on `node` at this shape, in seconds.
pub fn cost_for(algo: Algorithm, node: &NodeSpec, layout: JobLayout, msg: usize) -> Option<f64> {
    cost_with(algo, &cached_params(node, layout.ppn), layout, msg)
}

/// [`cost_for`] with the node's fitted constants already in hand.
fn cost_with(algo: Algorithm, params: &CostParams, layout: JobLayout, msg: usize) -> Option<f64> {
    let poly = poly_for(algo, layout, msg)?;
    let scale = if algo.scale_invariant() {
        msg.max(1) as f64
    } else {
        1.0
    };
    Some(poly.eval(params, scale))
}

/// Every applicable algorithm for `collective` at this shape, cheapest
/// first. Deterministic: ties break by registry index.
pub fn rank_static(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
    msg: usize,
) -> Vec<(Algorithm, f64)> {
    let params = cached_params(node, layout.ppn);
    let mut out: Vec<(Algorithm, f64)> = Algorithm::applicable_for(collective, layout.world_size())
        .into_iter()
        .filter_map(|a| cost_with(a, &params, layout, msg).map(|t| (a, t)))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));
    out
}

/// The analytically cheapest algorithm, if any is applicable.
pub fn best_static(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
    msg: usize,
) -> Option<Algorithm> {
    rank_static(collective, node, layout, msg)
        .first()
        .map(|(a, _)| *a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{AllgatherAlgo, BcastAlgo};
    use crate::exec::sim::tests::test_node;

    #[test]
    fn unsupported_world_yields_none() {
        let algo = Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling);
        assert!(poly_for(algo, JobLayout::new(3, 2), 64).is_none());
        assert!(cost_for(algo, &test_node(), JobLayout::new(3, 2), 64).is_none());
    }

    #[test]
    fn no_polynomial_above_the_world_bound() {
        let algo = Algorithm::Bcast(BcastAlgo::Binomial);
        let (at, above) = (JobLayout::new(544, 2), JobLayout::new(1089, 1));
        assert_eq!(at.world_size(), MAX_EXTRACT_WORLD);
        assert!(poly_for(algo, above, 64).is_none());
        assert!(poly_for(algo, JobLayout::new(65536, 65536), 64).is_none());
        assert!(rank_static(Collective::Bcast, &test_node(), above, 64).is_empty());
        assert!(poly_for(algo, at, 64).is_some());
    }

    #[test]
    fn ranking_is_sorted_complete_and_deterministic() {
        let node = test_node();
        let layout = JobLayout::new(2, 4);
        for c in Collective::ALL {
            let a = rank_static(c, &node, layout, 4096);
            let b = rank_static(c, &node, layout, 4096);
            assert_eq!(a, b);
            assert_eq!(a.len(), c.algo_count());
            for w in a.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
            assert_eq!(best_static(c, &node, layout, 4096), Some(a[0].0));
        }
    }

    #[test]
    fn cost_grows_with_message_size() {
        let node = test_node();
        let layout = JobLayout::new(4, 2);
        let algo = Algorithm::Allgather(AllgatherAlgo::Ring);
        let small = cost_for(algo, &node, layout, 64).unwrap();
        let big = cost_for(algo, &node, layout, 1 << 20).unwrap();
        assert!(big > small);
    }

    #[test]
    fn size_keyed_entries_are_capped_and_eviction_changes_no_answer() {
        // A daemon asked about ten thousand distinct bcast sizes: every
        // one is its own schedule for the chunked algorithms, so before
        // the cap every one stayed in the map for good.
        let node = test_node();
        let layout = JobLayout::new(3, 1);
        let chunked: Vec<Algorithm> = Algorithm::all_for(Collective::Bcast)
            .iter()
            .copied()
            .filter(|a| !a.scale_invariant())
            .collect();
        assert!(!chunked.is_empty());
        let size_keyed = || {
            let guard = POLYS.get_or_init(Default::default).read().unwrap();
            let in_map = guard.polys.keys().filter(|k| k.4 != 0).count();
            assert_eq!(in_map, guard.size_keyed.len());
            in_map
        };
        for msg in 1..=10_000usize {
            let ranked = rank_static(Collective::Bcast, &node, layout, msg);
            assert_eq!(ranked.len(), Collective::Bcast.algo_count());
            if msg % 1000 == 0 {
                assert!(size_keyed() <= SIZE_KEYED_CAP, "{}", size_keyed());
            }
        }
        assert!(10_000 * chunked.len() > SIZE_KEYED_CAP);
        // Sizes long evicted, sizes still cached and sizes never seen all
        // rank exactly as a from-scratch extraction does.
        for msg in [1usize, 2, 77, 5_000, 9_999, 10_000, 123_457] {
            let mut fresh: Vec<(Algorithm, f64)> = Algorithm::all_for(Collective::Bcast)
                .iter()
                .map(|&a| {
                    let (block, scale) = if a.scale_invariant() {
                        (1, msg as f64)
                    } else {
                        (msg, 1.0)
                    };
                    let poly = extract_poly(&a.schedule(3, block).unwrap(), layout).unwrap();
                    (a, poly.eval(&cached_params(&node, layout.ppn), scale))
                })
                .collect();
            fresh.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));
            assert_eq!(rank_static(Collective::Bcast, &node, layout, msg), fresh);
        }
    }

    #[test]
    fn non_scale_invariant_algorithms_get_per_size_polys() {
        // Chunked pipelined ring at two sizes that are not multiples of
        // each other: the polynomials must differ beyond pure scaling.
        let algo = Algorithm::Bcast(BcastAlgo::PipelinedRing);
        let layout = JobLayout::new(5, 1);
        let a = poly_for(algo, layout, 1000).unwrap();
        let b = poly_for(algo, layout, 1 << 20).unwrap();
        assert_ne!(a, b);
        // And evaluation uses scale 1 (already baked into the bytes).
        let node = test_node();
        let ta = cost_for(algo, &node, layout, 1000).unwrap();
        let tb = cost_for(algo, &node, layout, 1 << 20).unwrap();
        assert!(tb > ta);
    }
}
