//! SLO targets and burn-rate arithmetic for the `watch` surface.
//!
//! The daemon's latency objective is pinned in a committed file
//! (`slo.json`: `{"target_p50_ns":…,"target_p99_ns":…}`) handed to
//! `pml-mpi serve --slo`; those p50/p99 are the targets live
//! traffic is judged against. `watch` reports, per live window, how many
//! requests ran over each target and the **burn rate**: the fraction of
//! windowed requests over the p99 target divided by the error budget
//! (1% by default — by construction p99 should be exceeded by ~1% of
//! requests, so a burn rate of 1.0 means "consuming budget exactly as
//! provisioned", and anything much above 1.0 means the tail has moved).

use serde::Value;

/// Default error budget: the p99 target tolerates 1% of requests over.
pub const DEFAULT_ERROR_BUDGET: f64 = 0.01;

/// Latency targets the daemon tracks burn against.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTargets {
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Fraction of requests allowed over `p99_ns` (see
    /// [`DEFAULT_ERROR_BUDGET`]).
    pub error_budget: f64,
    /// Where the targets came from (a file path, for `watch` output).
    pub source: String,
}

impl SloTargets {
    /// Burn rate: `over / total / error_budget`. Zero traffic burns
    /// nothing.
    pub fn burn_rate(&self, over_p99: u64, total: u64) -> f64 {
        if total == 0 || self.error_budget <= 0.0 {
            return 0.0;
        }
        (over_p99 as f64 / total as f64) / self.error_budget
    }
}

/// Read SLO targets out of a `{"target_p50_ns":…,"target_p99_ns":…}`
/// document.
pub fn targets_from_json(text: &str, source: &str) -> Result<SloTargets, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("{source}: not valid JSON: {e}"))?;
    if doc.as_object().is_none() {
        return Err(format!("{source}: expected a JSON object"));
    }
    let target = |key: &str| -> Result<u64, String> {
        let v = doc.get(key).and_then(Value::as_u64);
        v.ok_or_else(|| format!("{source}: missing {key}"))
    };
    Ok(SloTargets {
        p50_ns: target("target_p50_ns")?,
        p99_ns: target("target_p99_ns")?,
        error_budget: DEFAULT_ERROR_BUDGET,
        source: source.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_read_the_one_pinned_shape() {
        let t = targets_from_json(
            r#"{"target_p50_ns": 65554, "target_p99_ns": 255068}"#,
            "slo.json",
        )
        .expect("parses");
        assert_eq!((t.p50_ns, t.p99_ns), (65554, 255068));
        assert_eq!(t.error_budget, DEFAULT_ERROR_BUDGET);
        assert_eq!(t.source, "slo.json");
    }

    #[test]
    fn missing_sections_are_typed_errors() {
        assert!(targets_from_json("not json", "x").is_err());
        assert!(targets_from_json("[]", "x").is_err());
        assert!(targets_from_json(r#"{"target_p50_ns": 1}"#, "x").is_err());
        // A measured point is not a target: nothing is read from it.
        let e = targets_from_json(r#"{"latency_ns": {"p50": 64664, "p99": 208238}}"#, "x")
            .expect_err("no targets");
        assert_eq!(e, "x: missing target_p50_ns");
    }

    #[test]
    fn burn_rate_is_budget_relative() {
        let t = SloTargets {
            p50_ns: 100,
            p99_ns: 900,
            error_budget: 0.01,
            source: "x".into(),
        };
        // Exactly 1% of requests over p99: burning budget as provisioned.
        assert!((t.burn_rate(1, 100) - 1.0).abs() < 1e-9);
        // 5% over: burning five times faster than the budget allows.
        assert!((t.burn_rate(5, 100) - 5.0).abs() < 1e-9);
        assert_eq!(t.burn_rate(0, 0), 0.0);
    }
}
