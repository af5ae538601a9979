//! # pml-lint (`cargo xtask`)
//!
//! Repo-specific correctness tooling for the PML-MPI workspace: a static
//! lint pass for the invariants the compiler cannot check here, plus the
//! artifact, schedule and cost verification lanes.
//!
//! What rustc and clippy can check lives in the root manifest's
//! `[workspace.lints]` table (`unsafe_code`, `let_underscore_must_use`,
//! `dbg_macro`, …) and in the wildcard-arm clippy lints the
//! algorithm-dispatch modules deny; `ci.sh` runs clippy with `-D warnings`.
//! The six lints here (see [`lints`]; any violation fails the gate — there
//! is no list of tolerated sites) are the rest:
//!
//! 1. **forbidden-panic** — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!    `assert!` (or `todo!`/`unimplemented!`) in non-test library code:
//!    measurement and selection degrade through `Result` or a "never
//!    finishes" runtime, they do not abort a sweep.
//! 2. **nondeterminism** — no ambient entropy (`thread_rng`,
//!    `from_entropy`), wall-clock values (`Instant::now`,
//!    `SystemTime::now`), or unordered containers (`HashMap`/`HashSet`) in
//!    the virtual-time executor and the measurement sweep, dataset
//!    generation, ML training, tuning-table code, `pml-obs` and the serve
//!    batcher: identical seeds must reproduce identical models and tables
//!    byte-for-byte.
//! 3. **cast-truncation** — no unguarded `as u8`/`as u16`/`as u32`
//!    narrowing casts in `mlcore`/`core`: node indices and class labels
//!    must be range-checked, not silently wrapped. (Clippy's
//!    `cast_possible_truncation` has no notion of a guard.)
//! 4. **float-reduction-order** — no `.sum()`/`.reduce()`/`.fold()`/
//!    `.product()` directly on a rayon parallel iterator in deterministic-
//!    pipeline code: float addition is order-sensitive and the parallel
//!    schedule is not.
//! 5. **relaxed-atomic-outside-counter** — `Ordering::Relaxed` only in the
//!    metric/counter modules.
//! 6. **metric-name-collision** — no two `Counter::new("…")`-family
//!    registrations sharing one metric name anywhere in the workspace
//!    (the only cross-file lint): the pml-obs registry keys exports by
//!    name, so a collision silently merges two series.
//!
//! The pass is a self-contained token-tree analyzer ([`mask`] blanks
//! comments, strings, and test-only code; [`tokens`] lexes what remains
//! into idents/numbers/punctuation with exact source spans) because the
//! vendored, air-gapped dependency set carries no `syn`/proc-macro stack —
//! and a dependency-free xtask keeps the tier-1 build fast.

pub mod lints;
pub mod mask;
pub mod tokens;
pub mod walk;

use lints::{LintConfig, Violation};
use std::path::Path;

/// Lint every workspace source file under `root` with `cfg` scopes.
pub fn scan_workspace(root: &Path, cfg: &LintConfig) -> Result<Vec<Violation>, String> {
    let files =
        walk::workspace_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut out = Vec::new();
    let mut regs = Vec::new();
    for (rel, path) in files {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        out.extend(lints::lint_file(&rel, &src, cfg));
        regs.extend(lints::metric_registrations(&rel, &src));
    }
    out.extend(lints::metric_collisions(&regs));
    Ok(out)
}
