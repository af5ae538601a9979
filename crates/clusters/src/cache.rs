//! On-disk dataset cache.
//!
//! Generating the full Table I dataset means simulating every algorithm on
//! every grid cell of 18 clusters — minutes of CPU. The paper's authors
//! benchmarked once and reused the dataset; we do the same by caching the
//! generated records as JSON keyed by the generation config and the zoo
//! fingerprint, regenerating only when either changes.
//!
//! Cache corruption is never fatal: a truncated, unparsable, or
//! version-mismatched file simply triggers regeneration, and the reason is
//! reported in [`CacheLoad::warnings`] so callers can log it.

use crate::datagen::{generate_full, DatagenConfig};
use crate::error::ClustersError;
use crate::record::TuningRecord;
use crate::zoo::ClusterEntry;
use pml_collectives::Collective;
use pml_obs::Counter;
use serde::{Deserialize, Serialize};
use std::path::Path;

static CACHE_HIT: Counter = Counter::new("dataset.cache.hit");
static CACHE_MISS: Counter = Counter::new("dataset.cache.miss");

/// Bump when the simulator's cost model changes in ways that invalidate
/// cached measurements.
pub const CACHE_VERSION: u32 = 4;

#[derive(Debug, Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    config: DatagenConfig,
    collective: Collective,
    /// Cheap zoo fingerprint: names and grid sizes.
    zoo_fingerprint: Vec<(String, usize)>,
    records: Vec<TuningRecord>,
}

fn fingerprint(clusters: &[ClusterEntry]) -> Vec<(String, usize)> {
    clusters
        .iter()
        .map(|c| (c.name().to_string(), c.grid_size()))
        .collect()
}

/// Outcome of a cache lookup: the records, whether they came from disk, and
/// warnings about any damaged or stale cache file that was discarded along
/// the way.
#[derive(Debug)]
pub struct CacheLoad {
    pub records: Vec<TuningRecord>,
    /// True when the records were read from a valid cache file.
    pub cached: bool,
    /// Why an existing cache file could not be used (corrupt, truncated,
    /// version mismatch) or a fresh cache could not be written, one line
    /// each. Regeneration already happened; this is purely diagnostic.
    pub warnings: Vec<String>,
}

/// Load records from `path` if it matches (version, config, zoo); otherwise
/// generate, (best-effort) write the cache, and return the fresh records.
///
/// Only invalid generation parameters error. Every cache-file problem —
/// unreadable, truncated, failed parse, stale version — degrades to
/// regeneration with a warning.
pub fn load_or_generate(
    path: &Path,
    clusters: &[ClusterEntry],
    collective: Collective,
    cfg: &DatagenConfig,
) -> Result<CacheLoad, ClustersError> {
    let fp = fingerprint(clusters);
    let mut warnings = Vec::new();
    match std::fs::read(path) {
        Ok(bytes) => match serde_json::from_slice::<CacheFile>(&bytes) {
            Ok(file) => {
                if file.version != CACHE_VERSION {
                    warnings.push(format!(
                        "cache {}: version {} != {CACHE_VERSION}, regenerating",
                        path.display(),
                        file.version
                    ));
                } else if file.config != *cfg
                    || file.collective != collective
                    || file.zoo_fingerprint != fp
                {
                    // Ordinary invalidation (different experiment), not damage.
                } else {
                    CACHE_HIT.inc();
                    return Ok(CacheLoad {
                        records: file.records,
                        cached: true,
                        warnings,
                    });
                }
            }
            Err(e) => {
                warnings.push(format!(
                    "cache {}: corrupt ({e}), regenerating",
                    path.display()
                ));
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            warnings.push(format!(
                "cache {}: unreadable ({e}), regenerating",
                path.display()
            ));
        }
    }

    CACHE_MISS.inc();
    let records = generate_full(clusters, collective, cfg)?;
    let file = CacheFile {
        version: CACHE_VERSION,
        config: *cfg,
        collective,
        zoo_fingerprint: fp,
        records: records.clone(),
    };
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            warnings.push(format!(
                "cache {}: could not create directory ({e})",
                dir.display()
            ));
        }
    }
    match serde_json::to_vec(&file) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                warnings.push(format!("cache {}: could not persist ({e})", path.display()));
            }
        }
        Err(e) => {
            warnings.push(format!(
                "cache {}: could not serialize ({e})",
                path.display()
            ));
        }
    }
    Ok(CacheLoad {
        records,
        cached: false,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn tiny() -> Vec<ClusterEntry> {
        let mut e = zoo::by_name("RI").unwrap().clone();
        e.msg_grid = vec![64, 1024];
        vec![e]
    }

    #[test]
    fn roundtrip_and_cache_hit() {
        let dir = std::env::temp_dir().join(format!("pmlcache-{}", std::process::id()));
        let path = dir.join("t.json");
        let cfg = DatagenConfig::noiseless();
        let clusters = tiny();
        let a = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        assert!(!a.cached);
        let b = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        assert!(b.cached);
        assert!(b.warnings.is_empty());
        assert_eq!(a.records, b.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_change_invalidates() {
        let dir = std::env::temp_dir().join(format!("pmlcache2-{}", std::process::id()));
        let path = dir.join("t.json");
        let clusters = tiny();
        load_or_generate(
            &path,
            &clusters,
            Collective::Allgather,
            &DatagenConfig::noiseless(),
        )
        .unwrap();
        let other = DatagenConfig {
            seed: 99,
            ..DatagenConfig::noiseless()
        };
        let out = load_or_generate(&path, &clusters, Collective::Allgather, &other).unwrap();
        assert!(!out.cached);
        // A config change is routine invalidation, not damage.
        assert!(out.warnings.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collective_mismatch_invalidates() {
        let dir = std::env::temp_dir().join(format!("pmlcache3-{}", std::process::id()));
        let path = dir.join("t.json");
        let clusters = tiny();
        let cfg = DatagenConfig::noiseless();
        load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        let out = load_or_generate(&path, &clusters, Collective::Alltoall, &cfg).unwrap();
        assert!(!out.cached);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_cache_regenerates_with_warning() {
        let dir = std::env::temp_dir().join(format!("pmlcache4-{}", std::process::id()));
        let path = dir.join("t.json");
        let clusters = tiny();
        let cfg = DatagenConfig::noiseless();
        let fresh = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        // Simulate a crash mid-write: chop the file in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let out = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        assert!(!out.cached);
        assert_eq!(out.warnings.len(), 1);
        assert!(out.warnings[0].contains("corrupt"));
        assert_eq!(out.records, fresh.records);
        // The rewritten cache hits again.
        let again = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        assert!(again.cached);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_regenerates_with_warning() {
        let dir = std::env::temp_dir().join(format!("pmlcache5-{}", std::process::id()));
        let path = dir.join("t.json");
        let clusters = tiny();
        let cfg = DatagenConfig::noiseless();
        load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        let text = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
        let stale = text.replacen(&format!("\"version\":{CACHE_VERSION}"), "\"version\":1", 1);
        assert_ne!(text, stale, "version field not found to rewrite");
        std::fs::write(&path, stale).unwrap();
        let out = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        assert!(!out.cached);
        assert!(out.warnings[0].contains("version"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_bytes_regenerate_with_warning() {
        let dir = std::env::temp_dir().join(format!("pmlcache6-{}", std::process::id()));
        let path = dir.join("t.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"not json at all \x00\xff").unwrap();
        let clusters = tiny();
        let cfg = DatagenConfig::noiseless();
        let out = load_or_generate(&path, &clusters, Collective::Allgather, &cfg).unwrap();
        assert!(!out.cached);
        assert!(!out.warnings.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
