//! Fitting the machine constants the polynomials are evaluated against.
//!
//! The [`CostParams`] constants are fitted *through the front door*:
//! tiny probe schedules (a two-rank ping, a three-sender fan-in, a
//! one-rank copy, a one-rank reduction) are run through the virtual-time
//! executor on the target node type, and α/β/γ fall out of two-point
//! slopes. Nothing reads the cost model's internal formulas, so the
//! analytic tier keeps agreeing with the simulator by construction even
//! as the simulator evolves.
//!
//! The fit is regime-consistent rather than regime-exact: β is the
//! slope between 64 KiB and 1 MiB (rendezvous / streaming territory),
//! α is the 1 KiB probe with the β extrapolation removed (eager
//! territory). Ranking quality depends on consistency across
//! algorithms, not on absolute microsecond accuracy.

use crate::exec::sim;
use crate::schedule::{CommSchedule, Region, ScheduleBuilder};
use pml_obs::Counter;
use pml_simnet::{CostModel, CostParams, JobLayout, NodeSpec};
use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

/// Probe-fit campaigns run (cache misses; hits are counted separately).
static FITS: Counter = Counter::new("schedcost.fits");
/// Parameter-cache hits.
static PARAM_HITS: Counter = Counter::new("schedcost.cache.param_hits");

/// Small probe: eager messages, cache-resident copies.
const SMALL: usize = 1024;
/// Mid probe: past the rendezvous knee.
const MID: usize = 64 * 1024;
/// Big probe: firmly bandwidth-bound.
const BIG: usize = 1 << 20;

/// One-directional two-rank ping of `bytes`.
fn ping(bytes: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(2, bytes, bytes, bytes, 0);
    sb.step(0, |s| s.send(1, Region::input(0, bytes)));
    sb.step(1, |s| s.recv(0, Region::work(0, bytes)));
    sb.finish()
}

/// Three senders fan into rank 0, which completes all three receives in
/// one step. Against [`ping`], the two *extra* messages isolate the
/// marginal per-message overhead of an already-open phase: the base
/// latency is paid once, each further message only costs CPU handling.
fn fan_in(bytes: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(4, bytes, bytes, 3 * bytes, 0);
    for r in 1..4u32 {
        sb.step(r, |s| s.send(0, Region::input(0, bytes)));
    }
    sb.step(0, |s| {
        for r in 1..4usize {
            s.recv(r as u32, Region::work((r - 1) * bytes, bytes));
        }
    });
    sb.finish()
}

/// One-rank local copy of `bytes`.
fn copy_probe(bytes: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(1, bytes, bytes, bytes, 0);
    sb.step(0, |s| {
        s.copy(Region::input(0, bytes), Region::work(0, bytes))
    });
    sb.finish()
}

/// One-rank elementwise reduction of `bytes`.
fn combine_probe(bytes: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(1, bytes, bytes, bytes, 0);
    sb.step(0, |s| {
        s.copy(Region::input(0, bytes), Region::work(0, bytes));
        s.combine(Region::input(0, bytes), Region::work(0, bytes));
    });
    sb.finish()
}

/// Fit the α-β-γ constants for one (node type, PPN) pair from simulated
/// probes. Deterministic: the executor is noise-free, so identical
/// inputs produce bit-identical parameters.
pub fn fit_params(node: &NodeSpec, ppn: u32) -> CostParams {
    FITS.inc();
    let cost = CostModel::new(node.clone(), ppn);
    let slope = |t_big: f64, t_mid: f64| ((t_big - t_mid) / (BIG - MID) as f64).max(0.0);

    // Inter-node: the two ranks land on different nodes.
    let net = JobLayout::new(2, 1);
    let t = |bytes: usize| sim::run(&ping(bytes), net, &cost).time_s;
    let t_ping_net = t(SMALL);
    let beta_net = slope(t(BIG), t(MID));
    let alpha_net = (t_ping_net - beta_net * SMALL as f64).max(0.0);

    // Intra-node: both ranks share a node.
    let shm = JobLayout::new(1, 2);
    let t = |bytes: usize| sim::run(&ping(bytes), shm, &cost).time_s;
    let t_ping_shm = t(SMALL);
    let beta_shm = slope(t(BIG), t(MID));
    let alpha_shm = (t_ping_shm - beta_shm * SMALL as f64).max(0.0);

    // Marginal per-message overhead: a 3-way fan-in pays the base latency
    // once, so its gap to the ping is two extra messages' worth of CPU
    // post/complete handling.
    let fan = JobLayout::new(4, 1);
    let per_msg_net = ((sim::run(&fan_in(SMALL), fan, &cost).time_s - t_ping_net) / 2.0).max(0.0);
    let fan = JobLayout::new(1, 4);
    let per_msg_shm = ((sim::run(&fan_in(SMALL), fan, &cost).time_s - t_ping_shm) / 2.0).max(0.0);

    // Local memory system: per-byte copy and reduction slopes. The
    // per-op constant terms are below every latency term the polynomial
    // carries and are deliberately dropped.
    let one = JobLayout::new(1, 1);
    let t = |bytes: usize| sim::run(&copy_probe(bytes), one, &cost).time_s;
    let beta_mem = slope(t(BIG), t(MID));
    // The combine probe carries a copy of the same size; subtracting the
    // copy slope isolates the reduction's own per-byte cost.
    let t = |bytes: usize| sim::run(&combine_probe(bytes), one, &cost).time_s;
    let gamma = slope(t(BIG), t(MID)) - beta_mem;

    CostParams {
        alpha_net_s: alpha_net,
        beta_net_s_per_byte: beta_net,
        alpha_shm_s: alpha_shm,
        beta_shm_s_per_byte: beta_shm,
        gamma_s_per_byte: gamma.max(0.0),
        beta_mem_s_per_byte: beta_mem,
        per_msg_net_s: per_msg_net,
        per_msg_shm_s: per_msg_shm,
    }
}

/// Process-wide fitted-parameter cache: per PPN, the node types fitted so
/// far beside their constants, found by comparing specs by value. Reads
/// never mutate selection state, so memoization cannot break determinism.
type Fitted = BTreeMap<u32, Vec<(NodeSpec, CostParams)>>;
static PARAMS: OnceLock<RwLock<Fitted>> = OnceLock::new();

/// [`fit_params`] with process-wide memoization.
pub fn cached_params(node: &NodeSpec, ppn: u32) -> CostParams {
    let find = |fitted: &Fitted| Some(fitted.get(&ppn)?.iter().find(|(n, _)| n == node)?.1);
    let cache = PARAMS.get_or_init(Default::default);
    if let Some(params) = cache.read().ok().and_then(|guard| find(&guard)) {
        PARAM_HITS.inc();
        return params;
    }
    let fitted = fit_params(node, ppn);
    if let Ok(mut guard) = cache.write() {
        // A thread that raced this fit already stored the same constants.
        if find(&guard).is_none() {
            guard.entry(ppn).or_default().push((node.clone(), fitted));
        }
    }
    fitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sim::tests::test_node;

    #[test]
    fn fitted_params_are_sane_and_ordered() {
        let p = fit_params(&test_node(), 4);
        assert!(p.is_sane(), "{p:?}");
        // The fabric has more latency than shared memory, and less
        // bandwidth per byte is slower (bigger β).
        assert!(p.alpha_net_s > p.alpha_shm_s, "{p:?}");
        assert!(p.alpha_net_s > 0.0 && p.beta_net_s_per_byte > 0.0);
        assert!(p.beta_mem_s_per_byte > 0.0 && p.gamma_s_per_byte > 0.0);
        // An extra message in an open phase is cheaper than a fresh
        // round trip — that gap is the whole point of the term.
        assert!(
            p.per_msg_net_s > 0.0 && p.per_msg_net_s < p.alpha_net_s,
            "{p:?}"
        );
        assert!(p.per_msg_shm_s < p.alpha_shm_s, "{p:?}");
    }

    #[test]
    fn fit_is_deterministic_and_cached() {
        let node = test_node();
        let a = fit_params(&node, 8);
        let b = fit_params(&node, 8);
        assert_eq!(a, b);
        let c = cached_params(&node, 8);
        let d = cached_params(&node, 8);
        assert_eq!(c, d);
        assert_eq!(a, c);
    }

    #[test]
    fn higher_ppn_does_not_speed_up_memory() {
        let node = test_node();
        let lo = fit_params(&node, 2);
        let hi = fit_params(&node, 56);
        assert!(hi.beta_mem_s_per_byte >= lo.beta_mem_s_per_byte);
    }
}
