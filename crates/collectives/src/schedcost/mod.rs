//! # schedcost — static symbolic α-β-γ cost extraction from the schedule IR
//!
//! Where [`crate::exec::sim`] *executes* a schedule in virtual time,
//! this module *reads its cost off the IR*: a single walk over the
//! schedcheck Post/Complete dependency graph produces, per (algorithm,
//! world, message-size) cell, an exact symbolic polynomial
//!
//! ```text
//! T(m) = a·α_net + a'·α_shm
//!      + max(b, n)·β_net·m + b'·β_shm·m
//!      + c·γ·m + c'·β_mem·m
//!      + d·msg_net + d'·msg_shm
//! ```
//!
//! with **integer coefficients** ([`CostPoly`]) and zero schedule
//! execution:
//!
//! * the round counts `a`/`a'` come from the critical path through the
//!   FIFO-matched message graph (each completed receive is one latency
//!   term, split net vs shm by the job's [`pml_simnet::JobLayout`]);
//! * the byte counts `b`/`b'` are the maximum per-rank traffic along
//!   that same path;
//! * `c` counts reduction-op bytes (`Combine`) and `c'` local pack/
//!   unpack bytes (`Copy`) on the path;
//! * `n` is the per-link contention term: the heaviest NIC (tx or rx
//!   byte sum over inter-node messages, maximized over nodes), which is
//!   what prices fan-in/fan-out algorithms like Scatter-Dest honestly;
//! * `d`/`d'` count *extra* messages beyond the first per phase on the
//!   path: a phase posting or completing k messages pays the base
//!   latency once plus a fitted marginal per-message cost for the rest.
//!
//! The machine constants (α, β, γ — [`pml_simnet::CostParams`]) are not
//! read out of the cost model's internals: [`fit_params`] fits them from
//! a handful of two-rank probe schedules run through the virtual-time
//! executor, so the polynomial stays honest if the simulator changes.
//!
//! Everything downstream is ranking: [`rank_static`]/[`best_static`]
//! order a collective's algorithms analytically (the `pml-core`
//! `AnalyticSelector` fallback tier), and [`differential_report`] proves
//! the static ranking against simnet virtual time across the schedcheck
//! grid (`pml-mpi verify --costs`).

mod analytic;
mod differential;
mod extract;
mod fit;

pub use analytic::{best_static, cost_for, poly_for, rank_static};
pub use differential::{
    cell_layout, derive_grid, differential_report, sim_time, DiffCell, DiffReport, TOP1_BAR_PERCENT,
};
pub use extract::{doc_cost, extract_poly};
pub use fit::{cached_params, fit_params};

use crate::schedcheck::SchedError;
use pml_simnet::CostParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The symbolic cost of one schedule on one layout: integer
/// coefficients of the α-β-γ polynomial. All byte counts are in units
/// of the block size the schedule was generated at, so a unit-block
/// polynomial evaluates across the whole message-size sweep (see
/// [`CostPoly::eval`]'s `scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostPoly {
    /// Inter-node latency terms on the critical path.
    pub net_rounds: u64,
    /// Intra-node latency terms on the critical path.
    pub shm_rounds: u64,
    /// Inter-node bytes received along the critical path.
    pub net_bytes: u64,
    /// Intra-node bytes received along the critical path.
    pub shm_bytes: u64,
    /// Reduction-op (`Combine`) bytes on the critical path.
    pub reduce_bytes: u64,
    /// Local pack/unpack (`Copy`) bytes on the critical path.
    pub copy_bytes: u64,
    /// Contention: max over nodes of max(NIC tx, NIC rx) byte totals.
    pub nic_bytes: u64,
    /// Extra inter-node messages beyond the first in each phase on the
    /// critical path: fan-in/fan-out phases pay the base latency once,
    /// then a marginal per-message CPU cost per further message.
    pub net_msgs: u64,
    /// Extra intra-node messages beyond the first in each phase.
    pub shm_msgs: u64,
}

impl CostPoly {
    /// Evaluate the polynomial against fitted machine constants.
    ///
    /// `scale` multiplies every byte coefficient — pass the message size
    /// when the polynomial was extracted at unit block (scale-invariant
    /// algorithms), or `1.0` when it was extracted at the actual size.
    /// Round counts never scale: latency terms are per message, not per
    /// byte.
    pub fn eval(&self, params: &CostParams, scale: f64) -> f64 {
        self.net_rounds as f64 * params.alpha_net_s
            + self.shm_rounds as f64 * params.alpha_shm_s
            + self.net_bytes.max(self.nic_bytes) as f64 * scale * params.beta_net_s_per_byte
            + self.shm_bytes as f64 * scale * params.beta_shm_s_per_byte
            + self.reduce_bytes as f64 * scale * params.gamma_s_per_byte
            + self.copy_bytes as f64 * scale * params.beta_mem_s_per_byte
            + self.net_msgs as f64 * params.per_msg_net_s
            + self.shm_msgs as f64 * params.per_msg_shm_s
    }
}

impl fmt::Display for CostPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}·α_net + {}·α_shm + max({},{})·β_net·m + {}·β_shm·m + {}·γ·m + {}·β_mem·m + {}·msg_net + {}·msg_shm",
            self.net_rounds,
            self.shm_rounds,
            self.net_bytes,
            self.nic_bytes,
            self.shm_bytes,
            self.reduce_bytes,
            self.copy_bytes,
            self.net_msgs,
            self.shm_msgs
        )
    }
}

/// Every way static cost extraction can fail. Corrupted schedule
/// documents land here as typed errors — extraction never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The schedule itself is malformed (bad peers, unmatched messages,
    /// deadlock, wrong doc version, …).
    Sched(SchedError),
    /// The layout describes a different world size than the schedule.
    LayoutMismatch {
        schedule_world: u32,
        layout_world: u32,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::Sched(e) => write!(f, "schedule error: {e}"),
            CostError::LayoutMismatch {
                schedule_world,
                layout_world,
            } => write!(
                f,
                "schedule world {schedule_world} does not fit layout world {layout_world}"
            ),
        }
    }
}

impl std::error::Error for CostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CostError::Sched(e) => Some(e),
            CostError::LayoutMismatch { .. } => None,
        }
    }
}

impl From<SchedError> for CostError {
    fn from(e: SchedError) -> Self {
        CostError::Sched(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams {
            alpha_net_s: 1.0e-6,
            beta_net_s_per_byte: 1.0e-9,
            alpha_shm_s: 1.0e-7,
            beta_shm_s_per_byte: 1.0e-10,
            gamma_s_per_byte: 2.0e-10,
            beta_mem_s_per_byte: 1.0e-10,
            per_msg_net_s: 2.5e-7,
            per_msg_shm_s: 5.0e-8,
        }
    }

    #[test]
    fn eval_is_linear_in_scale_for_byte_terms() {
        let poly = CostPoly {
            net_rounds: 3,
            net_bytes: 10,
            ..Default::default()
        };
        let p = params();
        let t1 = poly.eval(&p, 1.0);
        let t2 = poly.eval(&p, 2.0);
        // Latency part constant, byte part doubles.
        let alpha = 3.0 * p.alpha_net_s;
        assert!((t2 - alpha - 2.0 * (t1 - alpha)).abs() < 1e-18);
    }

    #[test]
    fn contention_term_takes_over_when_heavier() {
        let p = params();
        let path = CostPoly {
            net_bytes: 100,
            ..Default::default()
        };
        let contended = CostPoly {
            net_bytes: 100,
            nic_bytes: 700,
            ..Default::default()
        };
        assert!(contended.eval(&p, 1.0) > path.eval(&p, 1.0));
        assert!((contended.eval(&p, 1.0) - 700.0 * p.beta_net_s_per_byte).abs() < 1e-18);
    }

    #[test]
    fn errors_render_and_chain() {
        let e = CostError::LayoutMismatch {
            schedule_world: 8,
            layout_world: 6,
        };
        assert!(e.to_string().contains("8"));
        let e = CostError::from(SchedError::UnsupportedWorld { world: 7 });
        assert!(matches!(e, CostError::Sched(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_shows_every_coefficient() {
        let poly = CostPoly {
            net_rounds: 1,
            shm_rounds: 2,
            net_bytes: 3,
            shm_bytes: 4,
            reduce_bytes: 5,
            copy_bytes: 6,
            nic_bytes: 7,
            net_msgs: 8,
            shm_msgs: 9,
        };
        let s = poly.to_string();
        for tok in [
            "1·α_net",
            "2·α_shm",
            "max(3,7)",
            "4·β_shm",
            "5·γ",
            "6·β_mem",
            "8·msg_net",
            "9·msg_shm",
        ] {
            assert!(s.contains(tok), "{s} missing {tok}");
        }
    }
}
