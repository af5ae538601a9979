//! Workspace source discovery.

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: test and fixture trees (the lints cover
/// non-test library code only), vendored deps, and build output.
const SKIP_DIRS: [&str; 5] = ["tests", "examples", "fixtures", "target", "vendor"];

/// All lintable `.rs` files under `root`, repo-relative with `/`
/// separators, sorted. Scans the root package `src/` and every
/// `crates/*/src/`.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            roots.push(m.join("src"));
        }
    }
    let mut out = Vec::new();
    for r in roots {
        if r.is_dir() {
            collect(&r, &mut out)?;
        }
    }
    let mut rel: Vec<(String, PathBuf)> = out
        .into_iter()
        .filter_map(|p| {
            let r = p.strip_prefix(root).ok()?;
            Some((r.to_string_lossy().replace('\\', "/"), p.clone()))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

/// Recursively collect `.rs` files, skipping [`SKIP_DIRS`].
pub fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().to_string());
            if name.is_some_and(|n| SKIP_DIRS.contains(&n.as_str())) {
                continue;
            }
            collect(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
