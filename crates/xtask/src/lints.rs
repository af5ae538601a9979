//! The repo-specific lint passes.
//!
//! All passes run over masked source (see [`crate::mask`]): comments,
//! strings, and test-only code are already blanked, so the token scans
//! cannot false-positive on prose or fixtures embedded in strings. The
//! masked text is tokenized once per file (see [`crate::tokens`]) and
//! every pass works on token adjacency rather than raw chars.

use crate::mask::{line_of, mask_source, mask_test_code};
use crate::tokens::{fn_body_spans, innermost_fn, tokenize, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in non-test library code: measurement and selection must degrade
    /// through `Result`, not abort a sweep.
    ForbiddenPanic,
    /// Ambient entropy or unordered iteration in the dataset / training /
    /// tuning-table pipeline: identical seeds must reproduce identical
    /// models and tables byte-for-byte.
    Nondeterminism,
    /// An `as u8`/`as u16`/`as u32` narrowing cast in an ML-core or core
    /// function with no visible range guard: silent truncation corrupts
    /// node indices and class labels instead of failing.
    CastTruncation,
    /// A float reduction (`.sum`/`.reduce`/`.fold`/`.product`) directly on
    /// a rayon parallel iterator in deterministic-pipeline code: float
    /// addition is not associative, so the result depends on the thread
    /// schedule. Collect first, reduce sequentially.
    FloatReductionOrder,
    /// `Ordering::Relaxed` outside the designated metric/counter modules:
    /// Relaxed is correct for monotone counters read after a join, and
    /// silently wrong for flags, handshakes, or anything another load is
    /// ordered against. Everything else uses `SeqCst` until a measured
    /// need says otherwise.
    RelaxedAtomic,
    /// Two metric registrations sharing one name, anywhere in the
    /// workspace. The pml-obs registry keys exports by name, so a
    /// collision silently merges two series into one line of the dump —
    /// both become unreadable. Cross-file (the only cross-file lint);
    /// renaming either side is always available.
    MetricNameCollision,
}

impl LintKind {
    pub fn as_str(self) -> &'static str {
        match self {
            LintKind::ForbiddenPanic => "forbidden-panic",
            LintKind::Nondeterminism => "nondeterminism",
            LintKind::CastTruncation => "cast-truncation",
            LintKind::FloatReductionOrder => "float-reduction-order",
            LintKind::RelaxedAtomic => "relaxed-atomic-outside-counter",
            LintKind::MetricNameCollision => "metric-name-collision",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint hit: where and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub lint: LintKind,
    /// Repo-relative path with `/` separators.
    pub file: String,
    pub line: usize,
    /// The offending token, for the human reading the report.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.what
        )
    }
}

/// Scope configuration: which files each path-scoped lint applies to.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes (repo-relative) where the determinism lints run
    /// (`nondeterminism` and `float-reduction-order`).
    pub determinism_scope: Vec<String>,
    /// Exact paths carved out of `determinism_scope`: the designated
    /// wall-clock sites (a `Clock` implementation reads `Instant::now`
    /// somewhere, exactly once, behind the trait).
    pub determinism_exempt: Vec<String>,
    /// Path prefixes where narrowing casts must carry a range guard.
    pub cast_scope: Vec<String>,
    /// Path prefixes (the metric/counter modules) where `Ordering::Relaxed`
    /// is legitimate; everywhere else it is a violation.
    pub relaxed_counter_scope: Vec<String>,
}

impl LintConfig {
    /// The scopes for this repository.
    pub fn for_repo() -> Self {
        LintConfig {
            determinism_scope: vec![
                "crates/clusters/src/datagen.rs".into(),
                "crates/mlcore/src/".into(),
                // Table II's learners, moved out of `pml-mlcore`.
                "crates/bench/src/learners/".into(),
                "crates/core/src/tuning_table.rs".into(),
                "crates/core/src/tuner.rs".into(),
                "crates/core/src/pipeline.rs".into(),
                "crates/obs/src/".into(),
                "crates/serve/src/batch.rs".into(),
                // What datagen's numbers come from: the virtual-time
                // executor and the sweep that drives it.
                "crates/collectives/src/exec/sim.rs".into(),
                "crates/collectives/src/measure.rs".into(),
            ],
            determinism_exempt: vec!["crates/obs/src/clock.rs".into()],
            cast_scope: vec![
                "crates/mlcore/src/".into(),
                "crates/bench/src/learners/".into(),
                "crates/core/src/".into(),
            ],
            relaxed_counter_scope: vec![
                // The metrics registry (counters, gauges, histograms) and
                // the span-id/tick counters around it.
                "crates/obs/src/".into(),
                // The serve daemon's request/error/slow-capture counts and
                // the request ids drawn from them: read by `stats`/`watch`.
                "crates/serve/src/reqtrace.rs".into(),
            ],
        }
    }
}

/// Run every lint over one file. `rel` is the repo-relative path.
pub fn lint_file(rel: &str, src: &str, cfg: &LintConfig) -> Vec<Violation> {
    let masked = mask_test_code(&mask_source(src));
    let tokens = tokenize(&masked.chars().collect::<Vec<char>>());
    let mut out = Vec::new();
    forbidden_panic(rel, &masked, &tokens, &mut out);
    if !cfg.relaxed_counter_scope.iter().any(|p| rel.starts_with(p)) {
        relaxed_atomic(rel, &masked, &tokens, &mut out);
    }
    let determinism_exempt = cfg.determinism_exempt.iter().any(|p| rel == p);
    if !determinism_exempt && cfg.determinism_scope.iter().any(|p| rel.starts_with(p)) {
        nondeterminism(rel, &masked, &tokens, &mut out);
        float_reduction_order(rel, &masked, &tokens, &mut out);
    }
    if cfg.cast_scope.iter().any(|p| rel.starts_with(p)) {
        cast_truncation(rel, &masked, &tokens, &mut out);
    }
    out
}

fn push(
    out: &mut Vec<Violation>,
    lint: LintKind,
    rel: &str,
    masked: &str,
    at: usize,
    what: String,
) {
    out.push(Violation {
        lint,
        file: rel.to_string(),
        line: line_of(masked, at),
        what,
    });
}

// `debug_assert*` is deliberately absent: it vanishes in release builds,
// so it can state invariants without creating a production abort path.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

fn forbidden_panic(rel: &str, masked: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (k, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_macro =
            PANIC_MACROS.contains(&name) && tokens.get(k + 1).is_some_and(|n| n.is_punct('!'));
        let is_method = PANIC_METHODS.contains(&name)
            && k > 0
            && tokens[k - 1].is_punct('.')
            && tokens.get(k + 1).is_some_and(|n| n.is_punct('('));
        if is_macro || is_method {
            let what = if is_macro {
                format!("{name}! in library code")
            } else {
                format!(".{name}() in library code")
            };
            push(out, LintKind::ForbiddenPanic, rel, masked, t.start, what);
        }
    }
}

const ENTROPY_IDENTS: [&str; 2] = ["thread_rng", "from_entropy"];
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

fn nondeterminism(rel: &str, masked: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (k, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let what = if ENTROPY_IDENTS.contains(&name) {
            Some(format!("{name} (ambient entropy; plumb a seed instead)"))
        } else if UNORDERED_TYPES.contains(&name) {
            Some(format!(
                "{name} (unordered iteration; use BTreeMap/BTreeSet)"
            ))
        } else if CLOCK_TYPES.contains(&name)
            && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(k + 3).is_some_and(|n| n.is_ident("now"))
        {
            Some(format!(
                "{name}::now (wall-clock value in a derived result)"
            ))
        } else {
            None
        };
        if let Some(what) = what {
            push(out, LintKind::Nondeterminism, rel, masked, t.start, what);
        }
    }
}

/// Integer types an `as` cast can silently truncate into. `u64`/`usize`
/// widen on every supported target; `i*` and floats don't appear in the
/// scoped crates' cast sites.
const NARROW_TARGETS: [&str; 3] = ["u8", "u16", "u32"];

/// Identifiers whose presence anywhere in the enclosing function counts as
/// a range guard for a narrowing cast: an assertion family, a checked
/// conversion, an explicit clamp, a `partition_point` (result bounded by
/// the slice length, which the caller sized), a `MAX` comparison, or the
/// `LEAF` sentinel (tree code that compares against the sentinel has
/// already bounded the index space).
const CAST_GUARDS: [&str; 13] = [
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "assert",
    "assert_eq",
    "assert_ne",
    "try_from",
    "try_into",
    "clamp",
    "min",
    "partition_point",
    "MAX",
    "LEAF",
];

fn cast_truncation(rel: &str, masked: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    let spans = fn_body_spans(tokens);
    for (k, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(k + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        // Guard search is function-scoped: a cast is fine when the
        // enclosing fn states the range invariant somewhere.
        let guarded = innermost_fn(&spans, t.start).is_some_and(|(s, e)| {
            tokens.iter().any(|g| {
                g.kind == TokenKind::Ident
                    && g.start >= s
                    && g.end <= e
                    && CAST_GUARDS.contains(&g.text.as_str())
            })
        });
        if !guarded {
            push(
                out,
                LintKind::CastTruncation,
                rel,
                masked,
                t.start,
                format!(
                    "unguarded `as {}` narrowing cast (assert the range or use try_from)",
                    target.text
                ),
            );
        }
    }
}

/// Rayon adapters that start a parallel chain.
const PAR_SOURCES: [&str; 8] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_chunks_exact",
    "par_bridge",
    "par_windows",
];
const FLOAT_REDUCERS: [&str; 4] = ["sum", "reduce", "fold", "product"];

fn float_reduction_order(rel: &str, masked: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (k, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !PAR_SOURCES.contains(&t.text.as_str()) {
            continue;
        }
        if k == 0 || !tokens[k - 1].is_punct('.') {
            continue;
        }
        // Scan the rest of the statement (depth-0 `;`, or the close of the
        // enclosing bracket) for an order-sensitive reduction in the chain.
        let mut depth = 0i32;
        let mut j = k + 1;
        while let Some(n) = tokens.get(j) {
            match n.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => break,
                TokenKind::Ident
                    if depth == 0
                        && FLOAT_REDUCERS.contains(&n.text.as_str())
                        && tokens[j - 1].is_punct('.') =>
                {
                    push(
                        out,
                        LintKind::FloatReductionOrder,
                        rel,
                        masked,
                        n.start,
                        format!(
                            ".{}() on a parallel iterator (schedule-dependent float order; \
                             collect then reduce sequentially)",
                            n.text
                        ),
                    );
                }
                _ => {}
            }
            j += 1;
        }
    }
}

fn relaxed_atomic(rel: &str, masked: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (k, t) in tokens.iter().enumerate() {
        if !t.is_ident("Relaxed") {
            continue;
        }
        let qualified = k >= 3
            && tokens[k - 1].is_punct(':')
            && tokens[k - 2].is_punct(':')
            && tokens[k - 3].is_ident("Ordering");
        if qualified {
            push(
                out,
                LintKind::RelaxedAtomic,
                rel,
                masked,
                t.start,
                "Ordering::Relaxed outside a metric/counter module (use SeqCst, \
                 or move the counter into the metrics registry)"
                    .into(),
            );
        }
    }
}

/// Metric-constructor types whose `::new("name", …)` self-registers the
/// name in the pml-obs registry on first touch.
const METRIC_TYPES: [&str; 5] = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCounter",
    "WindowedHistogram",
];

/// One metric registration site: which file registers which name where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRegistration {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// The registered metric name (the first string-literal argument).
    pub name: String,
    pub line: usize,
}

/// Extract every metric name registered in one file: a
/// `Counter::new("…")`-family call in non-test library code. The scan
/// runs over masked tokens (so comments, prose strings, and test modules
/// never count) but reads the name literal from the original source — the
/// mask blanks string contents while preserving offsets 1:1. A
/// non-literal first argument (a name passed through a variable) is not a
/// static registration and is skipped.
pub fn metric_registrations(rel: &str, src: &str) -> Vec<MetricRegistration> {
    let masked = mask_test_code(&mask_source(src));
    let tokens = tokenize(&masked.chars().collect::<Vec<char>>());
    let orig: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    for (k, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !METRIC_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        let call = tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(k + 3).is_some_and(|n| n.is_ident("new"))
            && tokens.get(k + 4).is_some_and(|n| n.is_punct('('));
        if !call {
            continue;
        }
        if let Some(name) = string_literal_at(&orig, tokens[k + 4].end) {
            out.push(MetricRegistration {
                file: rel.to_string(),
                name,
                line: line_of(&masked, t.start),
            });
        }
    }
    out
}

/// Read a `"…"` literal starting at the first non-whitespace char at or
/// after `from`. Returns `None` when the next token is not a plain string
/// literal. Metric names are simple dotted idents so escapes don't occur,
/// but a `\` still consumes its follower so a stray `\"` cannot truncate
/// the read.
fn string_literal_at(orig: &[char], from: usize) -> Option<String> {
    let mut i = from;
    while orig.get(i).is_some_and(|c| c.is_whitespace()) {
        i += 1;
    }
    if orig.get(i) != Some(&'"') {
        return None;
    }
    i += 1;
    let mut name = String::new();
    while let Some(&c) = orig.get(i) {
        match c {
            '"' => return Some(name),
            '\\' => {
                i += 1;
                if let Some(&e) = orig.get(i) {
                    name.push(e);
                }
            }
            _ => name.push(c),
        }
        i += 1;
    }
    None
}

/// The cross-file pass: every name registered more than once anywhere in
/// the workspace is flagged at every site, so one report shows both
/// halves of a collision. Deterministic order: grouped by name, sites in
/// scan (file) order within each group.
pub fn metric_collisions(regs: &[MetricRegistration]) -> Vec<Violation> {
    let mut by_name: BTreeMap<&str, Vec<&MetricRegistration>> = BTreeMap::new();
    for r in regs {
        by_name.entry(&r.name).or_default().push(r);
    }
    let mut out = Vec::new();
    for (name, sites) in by_name {
        if sites.len() < 2 {
            continue;
        }
        for (i, s) in sites.iter().enumerate() {
            let others: Vec<String> = sites
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, o)| format!("{}:{}", o.file, o.line))
                .collect();
            out.push(Violation {
                lint: LintKind::MetricNameCollision,
                file: s.file.clone(),
                line: s.line,
                what: format!(
                    "metric name \"{name}\" also registered at {} \
                     (the exported series would merge; rename one)",
                    others.join(", ")
                ),
            });
        }
    }
    out
}
