//! pml-lint's own test suite: deliberately-bad fixture files the lints
//! must flag (with exact lines), clean files they must pass, the mask
//! layer's corner cases, and the repo itself.
//!
//! The fixtures under `tests/fixtures/` are plain text to the lint — cargo
//! never compiles them (only top-level `tests/*.rs` become test binaries),
//! and the workspace walker skips `tests/` trees, so they cannot leak into
//! the real gate either.

use std::path::Path;
use xtask::lints::{
    lint_file, metric_collisions, metric_registrations, LintConfig, LintKind, Violation,
};
use xtask::mask::{mask_source, mask_test_code};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Scope config mirroring the real one, aimed at the fixture tree.
fn fixture_config() -> LintConfig {
    LintConfig {
        determinism_scope: vec![
            "bad/entropy_in_datagen.rs".into(),
            "bad/float_reduction.rs".into(),
            "clean/".into(),
        ],
        determinism_exempt: vec![],
        cast_scope: vec!["bad/cast_truncation.rs".into(), "clean/".into()],
        relaxed_counter_scope: vec!["counters/".into()],
    }
}

fn kinds(vs: &[Violation]) -> Vec<LintKind> {
    vs.iter().map(|v| v.lint).collect()
}

#[test]
fn flags_stray_unwrap_and_panics_outside_tests() {
    let rel = "bad/stray_unwrap.rs";
    let vs = lint_file(rel, &fixture(rel), &fixture_config());
    let lines: Vec<(usize, &str)> = vs.iter().map(|v| (v.line, v.what.as_str())).collect();
    assert_eq!(
        kinds(&vs),
        vec![LintKind::ForbiddenPanic; 4],
        "expected exactly the four library-code sites, got {vs:?}"
    );
    // .unwrap() at its real line; the comment mention above it not counted.
    assert_eq!(lines[0].0, 6);
    assert!(lines[0].1.contains("unwrap"));
    assert_eq!(lines[1].0, 7);
    assert!(lines[1].1.contains("assert!"));
    assert!(lines[2].1.contains("panic!"));
    assert!(lines[3].1.contains("unreachable!"));
    // Nothing from the #[cfg(test)] module (lines 23+).
    assert!(vs.iter().all(|v| v.line < 23), "{vs:?}");
}

#[test]
fn flags_entropy_clock_and_unordered_map_in_scope() {
    let rel = "bad/entropy_in_datagen.rs";
    let vs = lint_file(rel, &fixture(rel), &fixture_config());
    let nondet: Vec<&Violation> = vs
        .iter()
        .filter(|v| v.lint == LintKind::Nondeterminism)
        .collect();
    let whats: String = nondet
        .iter()
        .map(|v| v.what.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(whats.contains("thread_rng"), "{whats}");
    assert!(whats.contains("Instant::now"), "{whats}");
    assert!(whats.contains("HashMap"), "{whats}");
    // use-declaration + call sites: 2× thread_rng, 2× Instant-ish?, 3× HashMap.
    assert_eq!(
        nondet.iter().filter(|v| v.what.contains("HashMap")).count(),
        3,
        "{whats}"
    );
}

#[test]
fn out_of_scope_file_skips_path_scoped_lints() {
    // The same entropy fixture linted under a path with no determinism
    // scope: only forbidden-panic could fire (and it has none).
    let vs = lint_file(
        "elsewhere/entropy.rs",
        &fixture("bad/entropy_in_datagen.rs"),
        &fixture_config(),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn determinism_exemption_carves_out_the_designated_clock_file() {
    let mut cfg = fixture_config();
    cfg.determinism_scope.push("designated/".into());
    cfg.determinism_exempt.push("designated/clock.rs".into());
    // In scope, not exempt: the nondeterminism lint fires.
    let vs = lint_file(
        "designated/other.rs",
        &fixture("bad/entropy_in_datagen.rs"),
        &cfg,
    );
    assert!(
        vs.iter().any(|v| v.lint == LintKind::Nondeterminism),
        "{vs:?}"
    );
    // The designated clock file: determinism lints skip it, but nothing
    // else does — the exemption is per-lint-family, not a blanket pass.
    let vs = lint_file(
        "designated/clock.rs",
        &fixture("bad/entropy_in_datagen.rs"),
        &cfg,
    );
    assert!(
        vs.iter().all(|v| v.lint != LintKind::Nondeterminism),
        "{vs:?}"
    );
    let vs = lint_file("designated/clock.rs", &fixture("bad/stray_unwrap.rs"), &cfg);
    assert!(
        vs.iter().any(|v| v.lint == LintKind::ForbiddenPanic),
        "{vs:?}"
    );
}

#[test]
fn clean_fixture_passes_every_lint() {
    let rel = "clean/good_library.rs";
    let vs = lint_file(rel, &fixture(rel), &fixture_config());
    assert!(vs.is_empty(), "clean fixture flagged: {vs:?}");
}

#[test]
fn flags_unguarded_narrowing_cast_but_not_guarded_or_widening() {
    let rel = "bad/cast_truncation.rs";
    let vs = lint_file(rel, &fixture(rel), &fixture_config());
    // Only the unguarded one-liner; the debug_assert-guarded cast and the
    // widening `as u64` both pass.
    assert_eq!(kinds(&vs), vec![LintKind::CastTruncation], "{vs:?}");
    assert_eq!(vs[0].line, 4);
    assert!(vs[0].what.contains("u32"), "{}", vs[0].what);
    // Outside the cast scope the lint stays silent.
    let vs = lint_file("elsewhere/cast.rs", &fixture(rel), &fixture_config());
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn flags_parallel_float_reduction_in_scope_only() {
    let rel = "bad/float_reduction.rs";
    let vs = lint_file(rel, &fixture(rel), &fixture_config());
    // The collect-then-sequential-sum and plain-iterator variants pass.
    assert_eq!(kinds(&vs), vec![LintKind::FloatReductionOrder], "{vs:?}");
    assert_eq!(vs[0].line, 4);
    assert!(vs[0].what.contains("sum"), "{}", vs[0].what);
    let vs = lint_file("elsewhere/reduce.rs", &fixture(rel), &fixture_config());
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn flags_relaxed_ordering_outside_counter_scope_only() {
    let rel = "bad/relaxed_atomic.rs";
    let vs = lint_file(rel, &fixture(rel), &fixture_config());
    // Only the fully-qualified `Ordering::Relaxed`; the SeqCst load, the
    // `Pacing::Relaxed` variant, and the test module all pass.
    assert_eq!(kinds(&vs), vec![LintKind::RelaxedAtomic], "{vs:?}");
    assert_eq!(vs[0].line, 7);
    assert!(vs[0].what.contains("SeqCst"), "{}", vs[0].what);
    // Inside the designated counter scope the ordering is sanctioned.
    let vs = lint_file("counters/metrics.rs", &fixture(rel), &fixture_config());
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn metric_registrations_skip_comments_tests_and_non_literals() {
    let rel = "bad/metric_collision_a.rs";
    let regs = metric_registrations(rel, &fixture(rel));
    let names: Vec<&str> = regs.iter().map(|r| r.name.as_str()).collect();
    // Exactly the two library-code literals: the doc-comment mention, the
    // variable pass-through, and the #[cfg(test)] registration all skip.
    assert_eq!(
        names,
        vec!["fixture.hits", "fixture.latency_ns"],
        "{regs:?}"
    );
    assert_eq!(regs[0].line, 6);
    assert_eq!(regs[0].file, rel);

    // The multi-line constructor: the literal on its own line after `(`
    // still reads, anchored at the constructor's line.
    let rel_b = "bad/metric_collision_b.rs";
    let regs_b = metric_registrations(rel_b, &fixture(rel_b));
    let names_b: Vec<&str> = regs_b.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names_b,
        vec!["fixture.hits", "fixture.window.requests"],
        "{regs_b:?}"
    );
    assert_eq!(regs_b[0].line, 6);
}

#[test]
fn metric_collision_across_files_flags_every_site() {
    let a = "bad/metric_collision_a.rs";
    let b = "bad/metric_collision_b.rs";
    let mut regs = metric_registrations(a, &fixture(a));
    regs.extend(metric_registrations(b, &fixture(b)));
    let vs = metric_collisions(&regs);
    // Both halves of the "fixture.hits" collision, each pointing at the
    // other; the unique names stay silent.
    assert_eq!(kinds(&vs), vec![LintKind::MetricNameCollision; 2], "{vs:?}");
    assert_eq!(vs[0].file, a);
    assert!(vs[0].what.contains("fixture.hits"), "{}", vs[0].what);
    assert!(vs[0].what.contains(b), "{}", vs[0].what);
    assert_eq!(vs[1].file, b);
    assert!(vs[1].what.contains(a), "{}", vs[1].what);

    // Either file alone registers unique names: no collision.
    let solo = metric_collisions(&metric_registrations(a, &fixture(a)));
    assert!(solo.is_empty(), "{solo:?}");
}

#[test]
fn mask_blanks_strings_comments_and_test_mods() {
    let src = r####"
// has unwrap() in a comment
/* nested /* block with panic! */ still comment */
const S: &str = "string .unwrap() call";
const R: &str = r#"raw panic!"#;
const C: char = '"';
fn lib() -> u8 { 1 }
#[cfg(test)]
mod tests {
    fn helper() { Vec::<u8>::new().pop().unwrap(); }
}
"####;
    let masked = mask_test_code(&mask_source(src));
    assert!(!masked.contains("unwrap"), "{masked}");
    assert!(!masked.contains("panic"), "{masked}");
    // Line structure preserved for exact line numbers.
    assert_eq!(masked.lines().count(), src.lines().count());
    // Non-test code survives.
    assert!(masked.contains("fn lib"));
    assert!(!masked.contains("helper"));
}

#[test]
fn mask_handles_lifetimes_and_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let q = '\\''; c }";
    let masked = mask_source(src);
    // Lifetimes survive; char literals blanked.
    assert!(masked.contains("<'a>"), "{masked}");
    assert!(!masked.contains("'x'"), "{masked}");
    assert!(masked.ends_with("c }"), "{masked}");
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// The real repo gate end-to-end: the workspace scan finds nothing. This
/// is the same check CI runs via `cargo xtask lint`.
#[test]
fn repo_is_lint_clean() {
    let vs = xtask::scan_workspace(repo_root(), &LintConfig::for_repo()).expect("scan");
    assert!(vs.is_empty(), "repo gate dirty: {vs:#?}");
}

/// Whether a manifest's `[lints]` table is exactly the workspace opt-in.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut lines = manifest.lines().map(str::trim);
    lines.any(|l| l == "[lints]")
        && lines
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.replace(' ', "") == "workspace=true")
}

/// The root `[workspace.lints]` table only reaches a crate that opts in,
/// so a new crate without `[lints] workspace = true` would silently build
/// without `unsafe_code`, `let_underscore_must_use` and the rest. And the
/// one sanctioned `unsafe` stays the only one.
#[test]
fn every_member_opts_into_the_workspace_lints() {
    let root = repo_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut members: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    members.sort();
    assert!(members.len() >= 10, "{members:?}");
    manifests.extend(members);
    let missing: Vec<String> = manifests
        .iter()
        .filter(|p| !opts_into_workspace_lints(&std::fs::read_to_string(p).expect("manifest")))
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );

    // Comments and strings are masked, so prose naming the attribute does
    // not count; test modules are not, so an allow there does.
    let allows: Vec<String> = xtask::walk::workspace_sources(root)
        .expect("walk")
        .into_iter()
        .filter(|(_, path)| {
            let src = std::fs::read_to_string(path).expect("source");
            mask_source(&src)
                .replace(' ', "")
                .contains("allow(unsafe_code)")
        })
        .map(|(rel, _)| rel)
        .collect();
    assert_eq!(allows, vec!["crates/serve/src/signal.rs"]);
}
